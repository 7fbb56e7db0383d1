"""The deterministic fault-injection harness: grammar, arming, latches."""

import os
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import FaultPlanError
from repro.faults import (
    INJECTABLE_ERRORS,
    PLAN_ENV,
    SHARD_SITES,
    SITES,
    FaultPlan,
    active_plan,
    fault_point,
)


class TestParse:
    def test_nth_selector(self):
        plan = FaultPlan.parse("service.worker@5:raise=OSError")
        (rule,) = plan.rules
        assert rule.site == "service.worker"
        assert rule.nth == 5
        assert rule.action == "raise"
        assert rule.exc_name == "OSError"

    def test_call_shard_selector(self):
        plan = FaultPlan.parse("pool.shard@2.3:kill")
        (rule,) = plan.rules
        assert (rule.call, rule.shard) == (2, 3)
        assert rule.nth is None
        assert rule.action == "kill"

    def test_multiple_rules_and_whitespace(self):
        plan = FaultPlan.parse(
            " pool.shard@0.1:kill ; service.worker@1:raise=RuntimeError ;"
        )
        assert len(plan.rules) == 2

    @pytest.mark.parametrize("text", [
        "no-selector-or-action",
        "site@1",                      # no action
        "site@1:explode",              # unknown action
        "site@1:raise=NameError",      # not in the allowlist
        "site@x:kill",                 # non-integer selector
        "site@1.2.3:kill",             # malformed call.shard
        "",                            # no rules at all
        " ; ; ",
    ])
    def test_rejects_bad_grammar(self, text):
        # Syntax is checked before the site, so the placeholder site
        # never decides these cases.
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(text)

    @pytest.mark.parametrize("text", [
        "service.worker@0:raise=OSError",    # hits are 1-based
        "service.worker@-1:raise=OSError",
        "pool.shard@-1.0:kill",              # call and shard are >= 0
        "pool.shard@0.-1:kill",
        "pool.dispach@1:raise=OSError",      # misspelled site
        "pool.submit@2:raise=OSError",       # no such site
        "s@1:kill",
        "service.worker@0.1:raise=OSError",  # site reports no coordinates
    ])
    def test_rejects_rules_that_can_never_fire(self, text):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(text)

    def test_sites_match_the_woven_fault_points(self):
        """:data:`SITES` lists exactly the sites the package calls."""
        package = pathlib.Path(repro.__file__).parent
        woven = set()
        for path in package.rglob("*.py"):
            woven.update(
                re.findall(r'fault_point\(\s*"([^"]+)"', path.read_text())
            )
        assert woven == set(SITES)
        assert set(SHARD_SITES) <= set(SITES)

    def test_allowlist_covers_recovery_paths(self):
        assert {"OSError", "RuntimeError", "KeyboardInterrupt",
                "SystemExit"} <= set(INJECTABLE_ERRORS)


def _parses_or_raises_typed(text):
    try:
        plan = FaultPlan.parse(text)
    except FaultPlanError:
        return
    assert plan.rules
    for rule in plan.rules:
        assert rule.site in SITES
        if rule.nth is None:
            assert rule.site in SHARD_SITES
            assert rule.call >= 0 and rule.shard >= 0
        else:
            assert rule.nth >= 1


#: Rule-shaped text: real and bogus sites, selectors and actions, so
#: the property reaches every branch of the parser, not just the first
#: split.
_rule_text = st.builds(
    lambda site, selector, action: f"{site}@{selector}:{action}",
    st.sampled_from(SITES + ("s", "pool.dispach", "")),
    st.text(alphabet="0123456789.-+ x", max_size=6),
    st.sampled_from(
        ["kill", "raise=OSError", "raise=NameError", "raise=", "explode", ""]
    ),
)


class TestParseFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80))
    def test_any_text_parses_or_raises_typed(self, text):
        _parses_or_raises_typed(text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_rule_text, max_size=4).map(";".join))
    def test_rule_shaped_text_parses_or_raises_typed(self, text):
        _parses_or_raises_typed(text)


class TestArming:
    def test_disarmed_site_is_a_no_op(self):
        assert active_plan() is None
        fault_point("service.worker")
        fault_point("pool.shard", call=0, shard=0)

    def test_armed_rule_fires_exactly_once(self):
        plan = FaultPlan.parse("ingest.refit@2:raise=ValueError")
        with plan.armed():
            fault_point("ingest.refit")  # hit 1: no match
            with pytest.raises(
                ValueError, match="injected fault at ingest.refit"
            ):
                fault_point("ingest.refit")  # hit 2: fires
            for _ in range(5):
                fault_point("ingest.refit")  # the rule never re-fires
        assert plan.fired() == 1
        assert plan.hits("ingest.refit") == 7

    def test_call_shard_rule_matches_coordinates_not_order(self):
        plan = FaultPlan.parse("pool.shard@1.2:raise=RuntimeError")
        with plan.armed():
            fault_point("pool.shard", call=0, shard=2)
            fault_point("pool.shard", call=1, shard=0)
            with pytest.raises(RuntimeError):
                fault_point("pool.shard", call=1, shard=2)
        assert plan.fired() == 1

    def test_armed_block_restores_prior_state(self):
        before_plan = active_plan()
        before_env = os.environ.get(PLAN_ENV)
        plan = FaultPlan.parse("checkpoint.save@1:kill")
        with plan.armed() as armed:
            assert active_plan() is armed is plan
            # Arming is in-process only: nothing is exported.
            assert os.environ.get(PLAN_ENV) == before_env
        assert active_plan() is before_plan
        assert os.environ.get(PLAN_ENV) == before_env

    def test_nested_arming_restores_outer_plan(self):
        outer = FaultPlan.parse("service.worker@1:raise=OSError")
        inner = FaultPlan.parse("ingest.refit@1:raise=OSError")
        with outer.armed():
            with inner.armed():
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None


class TestEnvArming:
    def test_plan_round_trips_through_env(self):
        from repro.faults import _plan_from_env

        os.environ[PLAN_ENV] = (
            "pool.shard@0.1:kill;checkpoint.save@3:raise=MemoryError"
        )
        try:
            plan = _plan_from_env()
        finally:
            del os.environ[PLAN_ENV]
        assert plan is not None
        assert len(plan.rules) == 2
        assert plan.rules[0].action == "kill"

    def test_empty_env_means_no_plan(self):
        from repro.faults import _plan_from_env

        assert os.environ.get(PLAN_ENV) is None
        assert _plan_from_env() is None

    def test_stale_env_plan_is_rejected(self, monkeypatch):
        """A plan naming a site that is not woven in fails where it is
        read (at import), instead of arming a rule that tests nothing."""
        from repro.faults import _plan_from_env

        monkeypatch.setenv(PLAN_ENV, "pool.submit@2:raise=OSError")
        with pytest.raises(FaultPlanError, match="pool.submit"):
            _plan_from_env()
