"""Tests for the declarative pipeline spec (string / dict / JSON forms)."""

import pytest

from repro.errors import PipelineError
from repro.pipeline import DEFAULT_STAGES, Pipeline, PipelineSpec
from repro.targets import get_target


def test_default_spec_runs_the_full_chain():
    assert PipelineSpec().stage_chain() == DEFAULT_STAGES


def test_allocator_name_string_form():
    spec = PipelineSpec.parse("NL", target="st231", registers=4)
    assert spec.allocator == "NL"
    assert spec.registers == 4
    assert spec.stage_chain() == DEFAULT_STAGES


def test_mode_string_forms():
    assert PipelineSpec.parse("ssa").ssa is True
    assert PipelineSpec.parse("non-ssa").ssa is False


def test_stage_chain_string_form():
    spec = PipelineSpec.parse("liveness,interference,extract,allocate,verify")
    assert spec.stage_chain() == ("liveness", "interference", "extract", "allocate", "verify")


def test_opt_and_verify_toggles_filter_explicit_chains_too():
    chain = "liveness,interference,extract,allocate,spill_code,loadstore_opt,verify"
    spec = PipelineSpec.parse(chain, opt=False, verify=False)
    assert spec.stage_chain() == (
        "liveness", "interference", "extract", "allocate", "spill_code",
    )


def test_single_stage_string_form():
    assert PipelineSpec.parse("allocate").stage_chain() == ("allocate",)


def test_json_string_form():
    spec = PipelineSpec.parse('{"allocator": "NL", "opt": false, "registers": 4}')
    assert spec.allocator == "NL"
    assert spec.opt is False
    assert "loadstore_opt" not in spec.stage_chain()


def test_config_dict_form():
    spec = PipelineSpec.from_config({"allocator": "GC", "verify": False})
    assert spec.allocator == "GC"
    assert "verify" not in spec.stage_chain()


def test_overrides_win_over_spec_form():
    spec = PipelineSpec.parse('{"allocator": "NL"}', allocator="GC")
    assert spec.allocator == "GC"


def test_none_overrides_are_ignored():
    spec = PipelineSpec.parse('{"allocator": "NL"}', allocator=None)
    assert spec.allocator == "NL"


def test_unknown_stage_is_a_clean_error():
    with pytest.raises(PipelineError, match="unknown pipeline stage 'frobnicate'"):
        PipelineSpec.parse("liveness,frobnicate,allocate")


def test_unknown_single_token_mentions_stages_and_allocators():
    with pytest.raises(PipelineError, match="unrecognized pipeline spec"):
        PipelineSpec.parse("frobnicate")


def test_unknown_allocator_is_a_clean_error():
    with pytest.raises(PipelineError, match="unknown allocator"):
        PipelineSpec.parse(None, allocator="nope").validate()


def test_unknown_config_key_is_a_clean_error():
    with pytest.raises(PipelineError, match="unknown pipeline config key"):
        PipelineSpec.from_config({"allocatr": "NL"})


@pytest.mark.parametrize("knob", ["dense", "coalesce_phi_webs", "coalesce_moves"])
def test_removed_front_end_knobs_are_unknown_config_keys(knob):
    with pytest.raises(PipelineError, match="unknown pipeline config key") as excinfo:
        PipelineSpec.parse(f'{{"{knob}": false}}')
    assert "known keys: ['allocator', 'target', 'registers', 'ssa'" in str(excinfo.value)


@pytest.mark.parametrize(
    "config",
    [
        '{"registers": "8"}',
        '{"registers": true}',
        '{"stages": 5}',
        '{"stages": ["liveness", 5]}',
        '{"constrain": "x"}',
        '{"constrain": true}',
        '{"target": 5}',
        '{"allocator": 3}',
        '{"check": 1}',
        '{"ssa": "false"}',
        '{"verify": "no"}',
        '{"opt": 0}',
    ],
)
def test_config_values_of_the_wrong_type_are_clean_errors(config):
    with pytest.raises(PipelineError, match="pipeline config key '[a-z]+' must be"):
        PipelineSpec.parse(config)


def test_config_values_of_the_right_type_pass():
    spec = PipelineSpec.parse(
        '{"stages": ["liveness", "interference"], "constrain": 1, "registers": null, "ssa": false}'
    )
    assert spec.stages == ("liveness", "interference")
    assert spec.constrain == 1 and spec.registers is None and spec.ssa is False


def test_unknown_target_is_a_clean_error():
    with pytest.raises(PipelineError, match="unknown target"):
        PipelineSpec.parse(None, target="pdp11").validate()


def test_invalid_json_is_a_clean_error():
    with pytest.raises(PipelineError, match="invalid pipeline JSON"):
        PipelineSpec.parse("{not json")


def test_target_instances_are_accepted():
    spec = PipelineSpec.parse("NL", target=get_target("armv7-a8"))
    assert spec.resolve_target().name == "armv7-a8"


def test_parse_preserves_unregistered_target_instances():
    import dataclasses

    custom = dataclasses.replace(get_target("st231"), name="custom-vliw")
    spec = PipelineSpec(allocator="NL", target=custom, registers=4)
    reparsed = PipelineSpec.parse(spec, registers=2)
    assert reparsed.resolve_target() is custom
    assert reparsed.registers == 2
    assert Pipeline.from_spec(spec).spec.resolve_target() is custom


def test_spec_round_trips_through_to_dict():
    spec = PipelineSpec.parse("NL", target="armv7-a8", registers=5, opt=False)
    again = PipelineSpec.from_config(spec.to_dict())
    assert again == spec


def test_pipeline_stages_property_reflects_spec():
    pipe = Pipeline.from_spec("NL", opt=False, verify=False)
    assert pipe.stages == (
        "liveness", "interference", "extract", "allocate", "assign", "spill_code",
    )
