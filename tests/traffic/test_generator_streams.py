"""Columnar generator forms: input validation and profile names."""

import pytest

from repro.traffic import generators as gen


def test_background_columnar_rejects_empty():
    with pytest.raises(ValueError):
        gen.background_columnar(0)
    with pytest.raises(ValueError):
        gen.background_traffic(-5)


def test_columnar_forms_carry_profile_names():
    assert gen.caida_like_columnar(500).name == "caida-like"
    assert gen.mawi_like_columnar(500).name == "mawi-like"
