import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ralab.scenario import (
    Scenario,
    ScenarioError,
    apply_overrides,
    emit_scenario,
    parse_scenario,
    read_scenario,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        assert parse_scenario("") == Scenario()

    def test_comments_and_blanks_ignored(self):
        text = "\n# a comment\n   \nn_cr = 8  # trailing comment\n"
        assert parse_scenario(text) == Scenario(n_cr=8)

    def test_default_split(self):
        sc = Scenario()
        assert sc.n_total == 64
        assert sc.n_cf == 10
        assert sc.n_cb + sc.n_cr == 54

    def test_duration_slots(self):
        assert Scenario(duration_ms=10.0, t_tti_ms=0.5).duration_slots == 20


class TestParseErrors:
    def test_unknown_key_names_line(self):
        with pytest.raises(ScenarioError, match=r"line 2: unknown key 'n_crx'"):
            parse_scenario("n_cr = 4\nn_crx = 5\n")

    def test_bad_value_names_line_and_type(self):
        with pytest.raises(ScenarioError, match=r"line 1:.*'abc'.*int"):
            parse_scenario("n_cr = abc\n")

    def test_missing_equals(self):
        with pytest.raises(ScenarioError, match=r"line 1: expected 'key = value'"):
            parse_scenario("just some words\n")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ScenarioError, match=r"line 3:.*already set on line 1"):
            parse_scenario("n_cr = 4\n\nn_cr = 5\n")

    def test_empty_value(self):
        with pytest.raises(ScenarioError, match=r"line 1:.*no value"):
            parse_scenario("n_cr =\n")

    def test_split_overflow_named_by_key(self):
        # n_cr = 60 leaves n_cb negative under n_cb + n_cr = 54
        with pytest.raises(ScenarioError, match=r"n_cr=60.*n_cb=-6"):
            parse_scenario("n_cr = 60\n")

    def test_range_violations_named_by_key(self):
        for text, key in [
            ("duration_ms = -1", "duration_ms"),
            ("t_p = 4", "t_p"),
            ("estimator_mode = sometimes", "estimator_mode"),
            ("detection = psychic", "detection"),
            ("max_attempts = 0", "max_attempts"),
            ("r_threshold = 1", "r_threshold"),
            ("var_threshold = 0.0", "var_threshold"),
        ]:
            with pytest.raises(ScenarioError, match=key.split("_")[0]):
                parse_scenario(text + "\n")

    def test_off_grid_slot_length_named_by_key(self):
        # 0.3 ms is not a whole number of 0.125 ms steps
        with pytest.raises(ScenarioError,
                           match=r"t_tti_ms must be a positive multiple of 0\.125"):
            parse_scenario("t_tti_ms = 0.3\n")

    @pytest.mark.parametrize("duration_ms", [0.2, 0.25])
    def test_duration_below_one_slot_named_by_key(self, duration_ms):
        with pytest.raises(ScenarioError, match=r"duration_ms must span at least one 0\.5 ms"):
            Scenario(duration_ms=duration_ms, t_tti_ms=0.5)
        assert Scenario(duration_ms=0.3, t_tti_ms=0.5).duration_slots == 1

    def test_finest_slot_length_accepted(self):
        sc = parse_scenario("t_tti_ms = 0.125\nduration_ms = 10\n")
        assert sc.t_tti_ms == 0.125
        assert sc.duration_slots == 80

    @pytest.mark.parametrize("key", ["duration_ms", "t_tti_ms", "t_up_ms",
                                     "traffic.fourstep.rate_per_s"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, key, value):
        with pytest.raises(ScenarioError, match="must be finite"):
            parse_scenario(f"{key} = {value}\n")

    def test_even_r_threshold_rejected_for_t_p_2(self):
        with pytest.raises(ScenarioError, match="odd"):
            Scenario(t_p=2, r_threshold=10)
        Scenario(t_p=2, r_threshold=11)  # odd is fine

    def test_fourstep_devices_need_a_preamble(self):
        # n_cb = 64 - 10 - 54 = 0: nothing left for the four-step procedure
        with pytest.raises(ScenarioError, match="n_cb must be >= 1"):
            Scenario(n_cr=54, fourstep_n_ue=5)
        Scenario(n_cr=54)  # an empty pool is fine without four-step devices

    def test_event_devices_need_two_preambles(self):
        with pytest.raises(ScenarioError, match="n_cr"):
            Scenario(n_cr=1, twostep_n_event=5)

    @pytest.mark.parametrize("mode", ["on", "off"])
    def test_periodic_devices_need_an_event_preamble_unless_oracle(self, mode):
        # with the estimator on, an observation timer that expires first
        # serves a periodic device as event traffic
        with pytest.raises(ScenarioError, match=r"n_cr must be >= 2.*n_cr=1"):
            Scenario(n_cr=1, estimator_mode=mode, twostep_n_periodic=5)
        Scenario(n_cr=1, estimator_mode="oracle", twostep_n_periodic=5)


class TestRoundTrip:
    def test_default_round_trip_exact(self):
        sc = Scenario()
        assert parse_scenario(emit_scenario(sc)) == sc

    @given(
        duration_ms=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        t_p=st.sampled_from([1, 2, 3]),
        n_cr=st.integers(min_value=2, max_value=54),
        mode=st.sampled_from(["on", "off", "oracle"]),
        n_periodic=st.integers(min_value=0, max_value=5000),
        n_event=st.integers(min_value=0, max_value=5000),
        period=st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
        rate=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        r_threshold=st.integers(min_value=2, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_exact(self, duration_ms, t_p, n_cr, mode,
                                 n_periodic, n_event, period, rate, r_threshold):
        if t_p == 2 and r_threshold % 2 == 0:
            r_threshold += 1
        sc = Scenario(
            duration_ms=duration_ms, t_p=t_p, n_cr=n_cr, estimator_mode=mode,
            twostep_n_periodic=n_periodic, twostep_n_event=n_event,
            twostep_period_ms=period, twostep_event_rate_per_s=rate,
            r_threshold=r_threshold,
        )
        again = parse_scenario(emit_scenario(sc))
        assert again == sc  # dataclass equality covers every field exactly

    def test_file_round_trip(self, tmp_path):
        sc = Scenario(n_cr=29, fourstep_n_ue=23_000, fourstep_rate_per_s=0.5,
                      twostep_n_periodic=700, twostep_n_event=300)
        path = tmp_path / "case.scn"
        path.write_text(emit_scenario(sc), encoding="utf-8")
        assert read_scenario(path) == sc


class TestOverrides:
    def test_override_applies(self):
        sc = apply_overrides(Scenario(), ["n_cr=8", "duration_ms=123.5"])
        assert sc.n_cr == 8
        assert sc.duration_ms == 123.5

    def test_dotted_traffic_keys(self):
        sc = apply_overrides(Scenario(), ["traffic.fourstep.n_ue=100"])
        assert sc.fourstep_n_ue == 100

    def test_unknown_override_key(self):
        with pytest.raises(ScenarioError, match=r"override 1: unknown key"):
            apply_overrides(Scenario(), ["bogus=1"])

    def test_override_without_value(self):
        with pytest.raises(ScenarioError, match=r"override 1"):
            apply_overrides(Scenario(), ["n_cr"])

    def test_overridden_scenario_still_validated(self):
        with pytest.raises(ScenarioError):
            apply_overrides(Scenario(), ["n_cr=60"])


class TestImmutability:
    def test_frozen(self):
        sc = Scenario()
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.n_cr = 5


class TestShippedScenarios:
    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda p: p.name)
    def test_file_is_canonical(self, path):
        assert emit_scenario(read_scenario(path)) == path.read_text(encoding="utf-8")

    def test_defaults_file_holds_the_defaults(self):
        text = (SCENARIOS / "defaults.scn").read_text(encoding="utf-8")
        assert text == emit_scenario(Scenario())
