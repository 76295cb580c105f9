import dataclasses
import math

import pytest

from squeezer_sim import (
    InvalidParams,
    ModelParams,
    reference_params,
    validate,
)
from squeezer_sim.params import as_pump


def test_total_decay_orthogonal_reference_values():
    p = reference_params()
    assert p.gamma_orth == pytest.approx(1.575e7, rel=1e-15)


def test_total_decay_parallel_reference_values():
    p = reference_params()
    assert p.gamma_par == pytest.approx(5.5e6, rel=1e-15)


def test_total_decay_additive_and_order_independent(rng):
    for _ in range(50):
        a, b = rng.uniform(0.0, 1e8, size=2)
        p1 = validate({**reference_params().as_dict(),
                       "gamma_orth_c": a, "gamma_orth_l": b})
        p2 = validate({**reference_params().as_dict(),
                       "gamma_orth_c": b, "gamma_orth_l": a})
        assert p1.gamma_orth == a + b
        assert p1.gamma_orth == p2.gamma_orth


def test_reference_nonlinear_coupling():
    assert reference_params().nl_coupling_mu == 8.0e-4


def test_reference_passes_validation():
    # Round-tripping through validate must reproduce the same value.
    p = reference_params()
    assert validate(p.as_dict()) == p


def test_negative_mu_rejected():
    fields = reference_params().as_dict()
    fields["nl_coupling_mu"] = -1.0
    with pytest.raises(InvalidParams) as err:
        validate(fields)
    assert any("nl_coupling_mu must be > 0" in e for e in err.value.errors)


def test_dark_parallel_mode_rejected():
    # Each loss rate may be 0 and none negative, but the parallel mode
    # needs some loss; both violations are listed.
    fields = reference_params().as_dict()
    fields["gamma_par_c"], fields["gamma_par_l"] = 0.0, -1.0
    with pytest.raises(InvalidParams) as err:
        validate(fields)
    assert err.value.errors == ["gamma_par_l must be >= 0",
                                "gamma_par_c + gamma_par_l must be > 0"]


def test_non_finite_rate_rejected():
    fields = reference_params().as_dict()
    fields["gamma_orth_c"] = math.nan
    with pytest.raises(InvalidParams) as err:
        validate(fields)
    assert any("finite" in e for e in err.value.errors)


def test_all_zero_mode_decay_rejected():
    fields = reference_params().as_dict()
    fields["gamma_orth_c"] = 0.0
    fields["gamma_orth_l"] = 0.0
    with pytest.raises(InvalidParams):
        validate(fields)


def test_error_list_is_complete():
    fields = reference_params().as_dict()
    fields["nl_coupling_mu"] = -1.0
    fields["decay_k2"] = 0.0
    fields["gamma_par_c"] = math.inf
    with pytest.raises(InvalidParams) as err:
        validate(fields)
    text = " | ".join(err.value.errors)
    assert "nl_coupling_mu" in text
    assert "decay_k2" in text
    assert "gamma_par_c" in text


def test_unknown_and_missing_fields_reported():
    with pytest.raises(InvalidParams) as err:
        validate({"stim_rate_G": 1.0, "typo_field": 2.0})
    text = " | ".join(err.value.errors)
    assert "unknown field 'typo_field'" in text
    assert "missing field" in text


def test_params_immutable():
    p = reference_params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.stim_rate_G = 2.0


def test_pump_drive_validation():
    assert as_pump(3.5) == 3.5
    with pytest.raises(InvalidParams):
        as_pump(-1.0)
    with pytest.raises(InvalidParams):
        as_pump(math.nan)


@pytest.mark.parametrize("bad", ["abc", None])
def test_non_numeric_field_reports_every_violation(bad):
    # A field float() cannot read is one more violation in the list, not
    # an error that hides the others.
    fields = {**reference_params().as_dict(), "decay_k2": bad,
              "nl_coupling_mu": -1.0, "gamma_orth_c": math.inf}
    with pytest.raises(InvalidParams) as err:
        validate(fields)
    assert err.value.errors == [
        "nl_coupling_mu must be > 0",
        "decay_k2 must be a finite number",
        "gamma_orth_c must be a finite number",
    ]
