import math

import numpy as np
import pytest

from eprsim.optics import (
    WALKOFF_PRESETS,
    beam_radius,
    compensation_length,
    parse_length,
    rayleigh_range,
    walkoff_path,
)


class TestRayleighRange:
    def test_source_geometry(self):
        zr = rayleigh_range(12.4e-6, 390e-9)
        assert zr == pytest.approx(1.238593042092222e-3, rel=1e-12)
        # the published rounded value sits within 1.5 percent of the formula
        assert abs(zr - 1.25e-3) / 1.25e-3 < 0.015

    def test_quadratic_in_waist(self):
        assert rayleigh_range(2 * 12.4e-6, 390e-9) == pytest.approx(
            4 * rayleigh_range(12.4e-6, 390e-9), rel=1e-12
        )

    def test_unit_consistency(self):
        lam = 532e-9
        assert rayleigh_range(math.sqrt(lam / math.pi), lam) == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            rayleigh_range(0.0, 390e-9)
        with pytest.raises(ValueError):
            rayleigh_range(12e-6, -1.0)


class TestBeamRadius:
    def test_waist(self):
        assert beam_radius(0.0, 12.4e-6, 390e-9) == pytest.approx(12.4e-6, rel=1e-12)

    def test_crystal_centers(self):
        # crystal centers sit 0.72 mm from the waist; ratio about 1.157
        ratio = beam_radius(0.72e-3, 12.4e-6, 390e-9) / 12.4e-6
        assert ratio == pytest.approx(1.156682841073419, rel=1e-12)
        assert abs(ratio - 1.15) < 0.01

    def test_sqrt_two_at_rayleigh_range(self):
        zr = rayleigh_range(12.4e-6, 390e-9)
        assert beam_radius(zr, 12.4e-6, 390e-9) == pytest.approx(
            math.sqrt(2) * 12.4e-6, rel=1e-12
        )

    def test_even_in_z(self):
        assert beam_radius(-0.3e-3, 12.4e-6, 390e-9) == pytest.approx(
            beam_radius(0.3e-3, 12.4e-6, 390e-9), rel=1e-15
        )

    def test_ratio_depends_only_on_scaled_distance(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            w0 = rng.uniform(5e-6, 50e-6)
            lam = rng.uniform(300e-9, 1500e-9)
            scale = rng.uniform(0.1, 3.0)
            z = scale * rayleigh_range(w0, lam)
            ratio = beam_radius(z, w0, lam) / w0
            assert ratio == pytest.approx(math.sqrt(1 + scale**2), rel=1e-12)


class TestWalkoffPath:
    def test_preset_crystal(self):
        v_pump, v_signal = WALKOFF_PRESETS["ppktp"]
        delay = walkoff_path(1e-3, v_pump, v_signal)
        assert delay == pytest.approx(0.5159474671669795e-3, rel=1e-12)
        # observed value 0.58 mm is matched within 15 percent
        assert abs(delay - 0.58e-3) / 0.58e-3 < 0.15

    def test_zero_for_matched_velocities(self):
        assert walkoff_path(1e-3, 0.45, 0.45) == 0.0

    def test_linear_in_length(self):
        one = walkoff_path(1e-3, 0.41, 0.52)
        assert walkoff_path(2e-3, 0.41, 0.52) == pytest.approx(2 * one, rel=1e-12)

    def test_positive_when_pump_slower(self):
        assert walkoff_path(1e-3, 0.41, 0.52) > 0
        assert walkoff_path(1e-3, 0.52, 0.41) < 0

    def test_velocity_validation(self):
        with pytest.raises(ValueError):
            walkoff_path(1e-3, 0.0, 0.5)
        with pytest.raises(ValueError):
            walkoff_path(1e-3, 0.4, 1.2)


class TestCompensationLength:
    def test_source_compensator(self):
        assert compensation_length(0.58e-3, 0.58 / 3.6) == pytest.approx(3.6e-3, rel=1e-12)

    def test_zero_delay(self):
        assert compensation_length(0.0, 0.2) == 0.0

    def test_inverse_in_index_difference(self):
        assert compensation_length(0.58e-3, 2 * 0.58 / 3.6) == pytest.approx(
            1.8e-3, rel=1e-12
        )

    def test_zero_index_difference_rejected(self):
        with pytest.raises(ValueError):
            compensation_length(0.58e-3, 0.0)


class TestParseLength:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("12.4um", 12.4e-6),
            ("390nm", 390e-9),
            ("1mm", 1e-3),
            ("0.45mm", 0.45e-3),
            ("3.6mm", 3.6e-3),
            ("2cm", 2e-2),
            ("1.5m", 1.5),
            ("0.001", 0.001),
            ("12.4µm", 12.4e-6),
            ("1e-3", 1e-3),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_length(text) == pytest.approx(expected, rel=1e-15)

    def test_rejects_unknown_unit(self):
        with pytest.raises(ValueError, match="km"):
            parse_length("3km")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_length("twelve microns")

    @pytest.mark.parametrize("text", ["1e999um", "-1e999m"])
    def test_rejects_overflow(self, text):
        with pytest.raises(ValueError, match="not finite"):
            parse_length(text)
