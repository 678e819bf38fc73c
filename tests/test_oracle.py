import random
import sys
import textwrap
import time
from pathlib import Path

import pytest

from redustat.oracle import (
    MatchPolicy,
    OracleConfig,
    OracleSpawnError,
    OracleVerdict,
    OriginalDoesNotFailError,
    SCRIPTED_SIGNATURE,
    ScriptedOracle,
    VerdictStatus,
    baseline_signature,
    evaluate,
    normalize_signature,
    verdict_accepted,
)
from redustat.parser import parse_test


def scripted_verdict(oracle, *ids):
    """The scripted oracle ignores the test itself and judges only ``ids``."""
    return evaluate(oracle, frozenset(ids), None)


def command_verdict(oracle, source):
    ast = parse_test(source)
    return evaluate(oracle, ast.all_ids(), ast)


# -- scripted oracles ---------------------------------------------------------


def test_superset_of_failure_set_fails():
    oracle = ScriptedOracle(failure_sets=(frozenset({3}),))
    assert scripted_verdict(oracle, 0, 1, 2, 3).status is VerdictStatus.FAIL


def test_missing_failure_set_passes():
    oracle = ScriptedOracle(failure_sets=(frozenset({3}),))
    assert scripted_verdict(oracle, 0, 1, 2).status is VerdictStatus.PASS


def test_scripted_signature_is_constant():
    oracle = ScriptedOracle(failure_sets=(frozenset({0}),))
    assert scripted_verdict(oracle, 0).signature == SCRIPTED_SIGNATURE


def test_any_failure_set_suffices():
    oracle = ScriptedOracle(failure_sets=(frozenset({0, 1}), frozenset({4})))
    assert scripted_verdict(oracle, 4).status is VerdictStatus.FAIL
    assert scripted_verdict(oracle, 0).status is VerdictStatus.PASS


def test_empty_failure_set_rejected():
    with pytest.raises(ValueError):
        ScriptedOracle(failure_sets=(frozenset(),))
    with pytest.raises(ValueError):
        ScriptedOracle(failure_sets=())


@pytest.mark.parametrize("failure_sets, blockers", [
    ((frozenset({True}),), frozenset()),
    ((frozenset({1.0}),), frozenset()),
    ((frozenset({"1"}),), frozenset()),
    ((frozenset({0}), frozenset({2, None})), frozenset()),
    ((frozenset({0}),), frozenset({True})),
    ((frozenset({0}),), frozenset({2.0})),
    ((frozenset({0}),), frozenset({"2"})),
], ids=["set-bool", "set-float", "set-str", "second-set-none", "blocker-bool",
        "blocker-float", "blocker-str"])
def test_scripted_ids_must_be_ints(failure_sets, blockers):
    with pytest.raises(ValueError, match="failure_sets and blockers must hold integers"):
        ScriptedOracle(failure_sets, blockers)


def test_monotonicity_property_without_blockers():
    rng = random.Random(11)
    for _ in range(200):
        universe = list(range(10))
        oracle = ScriptedOracle(failure_sets=(
            frozenset(rng.sample(universe, rng.randint(1, 3))),))
        smaller = frozenset(i for i in universe if rng.random() < 0.5)
        larger = smaller | frozenset(i for i in universe if rng.random() < 0.5)
        if evaluate(oracle, smaller, None).status is VerdictStatus.FAIL:
            assert evaluate(oracle, larger, None).status is VerdictStatus.FAIL


def test_blockers_make_the_oracle_non_monotone():
    oracle = ScriptedOracle(failure_sets=(frozenset({0}),),
                            blockers=frozenset({4, 5}))
    assert scripted_verdict(oracle, 0).status is VerdictStatus.FAIL
    assert scripted_verdict(oracle, 0, 4).status is VerdictStatus.PASS  # partial blockers
    assert scripted_verdict(oracle, 0, 4, 5).status is VerdictStatus.FAIL
    # the unreduced test (all blockers present) fails, so reduction can start
    assert scripted_verdict(oracle, 0, 1, 2, 3, 4, 5).status is VerdictStatus.FAIL


def test_baseline_signature_scripted(flat_five):
    oracle = ScriptedOracle(failure_sets=(frozenset({1}),))
    assert baseline_signature(oracle, flat_five) == SCRIPTED_SIGNATURE


def test_baseline_raises_when_original_passes(flat_five):
    oracle = ScriptedOracle(failure_sets=(frozenset({99}),))
    with pytest.raises(OriginalDoesNotFailError):
        baseline_signature(oracle, flat_five)


def test_verdict_invariant_fail_needs_signature():
    with pytest.raises(ValueError):
        OracleVerdict(VerdictStatus.FAIL, signature="")
    with pytest.raises(ValueError):
        OracleVerdict(VerdictStatus.PASS, signature="boom")


# -- external command oracles --------------------------------------------------


ORACLE_SCRIPT = textwrap.dedent(
    """\
    import os, sys
    text = open(sys.argv[1], encoding="utf-8").read()
    assert os.environ["REDUSTAT_CANDIDATE"] == sys.argv[1]
    if "explode();" in text:
        print("AssertionError: expected:<1> but was:<2> at /tmp/Foo.java:42")
        sys.exit(1)
    sys.exit(0)
    """
)


@pytest.fixture
def command_oracle(tmp_path):
    script = tmp_path / "oracle.py"
    script.write_text(ORACLE_SCRIPT, encoding="utf-8")

    def make(**overrides):
        defaults = dict(
            command_template=f"{sys.executable} {script} {{candidate}}",
            workdir=str(tmp_path),
            timeout_ms=20_000,
            fail_exit_codes=frozenset({1}),
            signature_pattern=r"AssertionError[^\n]*",
            match_policy=MatchPolicy.SAME_SIGNATURE,
        )
        defaults.update(overrides)
        return OracleConfig(**defaults)

    return make


def test_command_failure_with_extracted_signature(command_oracle):
    verdict = command_verdict(command_oracle(), "setup();\nexplode();\n")
    assert verdict.status is VerdictStatus.FAIL
    assert verdict.signature.startswith("AssertionError")
    assert "42" not in verdict.signature  # line numbers are normalized away


def test_command_pass(command_oracle):
    verdict = command_verdict(command_oracle(), "setup();\n")
    assert verdict.status is VerdictStatus.PASS
    assert verdict.signature == ""


def test_unexpected_exit_code_is_invalid(tmp_path):
    script = tmp_path / "crash.py"
    script.write_text("import sys; sys.exit(3)\n", encoding="utf-8")
    config = OracleConfig(
        command_template=f"{sys.executable} {script} {{candidate}}",
        workdir=str(tmp_path),
        match_policy=MatchPolicy.ANY_FAILURE,
    )
    assert command_verdict(config, "x();").status is VerdictStatus.INVALID


def test_timeout_is_invalid(tmp_path):
    script = tmp_path / "slow.py"
    script.write_text("import time; time.sleep(10)\n", encoding="utf-8")
    config = OracleConfig(
        command_template=f"{sys.executable} {script} {{candidate}}",
        workdir=str(tmp_path),
        timeout_ms=200,
        match_policy=MatchPolicy.ANY_FAILURE,
    )
    assert command_verdict(config, "x();").status is VerdictStatus.INVALID


def test_timeout_kills_what_the_command_started(tmp_path):
    marker = tmp_path / "marker"
    config = OracleConfig(
        command_template=f"sh -c 'sleep 1 && touch {marker} & wait; exit 1'",
        workdir=str(tmp_path),
        timeout_ms=300,
        match_policy=MatchPolicy.ANY_FAILURE,
    )
    assert command_verdict(config, "x();").status is VerdictStatus.INVALID
    time.sleep(1.5)
    assert not marker.exists()


def test_run_end_kills_what_the_command_left_running(tmp_path):
    marker = tmp_path / "marker"
    config = OracleConfig(
        command_template=(f"sh -c '(sleep 0.5 && touch {marker}) "
                          f">/dev/null 2>&1 & exit 1'"),
        workdir=str(tmp_path),
        match_policy=MatchPolicy.ANY_FAILURE,
    )
    assert command_verdict(config, "x();").status is VerdictStatus.FAIL
    time.sleep(1.0)
    assert not marker.exists()


def test_spawn_failure_raises(tmp_path):
    config = OracleConfig(
        command_template=f"{tmp_path}/does-not-exist {{candidate}}",
        workdir=str(tmp_path),
        match_policy=MatchPolicy.ANY_FAILURE,
    )
    with pytest.raises(OracleSpawnError):
        command_verdict(config, "x();")


def test_fail_without_signature_match_uses_exit_code(tmp_path):
    script = tmp_path / "quietfail.py"
    script.write_text("import sys; sys.exit(1)\n", encoding="utf-8")
    config = OracleConfig(
        command_template=f"{sys.executable} {script} {{candidate}}",
        workdir=str(tmp_path),
        signature_pattern=r"AssertionError[^\n]*",
        match_policy=MatchPolicy.SAME_SIGNATURE,
    )
    verdict = command_verdict(config, "x();")
    assert verdict.status is VerdictStatus.FAIL
    assert verdict.signature == "exit:1"


def test_baseline_end_to_end_with_command(command_oracle):
    ast = parse_test("setup();\nexplode();\n", test_name="cmd")
    signature = baseline_signature(command_oracle(), ast)
    assert signature.startswith("AssertionError")


def test_shipped_fixture_oracle_script(tmp_path):
    script = Path(__file__).resolve().parent / "fixtures" / "assert_oracle.py"
    config = OracleConfig(
        command_template=f"{sys.executable} {script} {{candidate}}",
        workdir=str(tmp_path),
        signature_pattern=r"AssertionError[^\n]*",
        match_policy=MatchPolicy.SAME_SIGNATURE,
    )
    failing = command_verdict(config, "setup();\nexplode();\n")
    assert failing.status is VerdictStatus.FAIL
    # path, line number and duration are normalized out of the fingerprint
    assert failing.signature == ("AssertionError: expected:<0> but was:<1> "
                                 "at <path><line> after <dur>")
    assert command_verdict(config, "setup();\n").status is VerdictStatus.PASS


def test_non_utf8_output_still_gives_a_verdict(tmp_path):
    config = OracleConfig(
        command_template=r"""sh -c "printf '\377 java.lang.AssertionError\n'; exit 1" """,
        workdir=str(tmp_path),
        signature_pattern=r"\w+\.\w+\.AssertionError",
        match_policy=MatchPolicy.SAME_SIGNATURE,
    )
    verdict = command_verdict(config, "x();")
    assert verdict.status is VerdictStatus.FAIL
    assert verdict.signature == "java.lang.AssertionError"


def test_signature_group_outside_the_match_falls_back_to_the_exit_code(tmp_path):
    script = tmp_path / "fail.sh"
    script.write_text('grep -q "deep();" "$1" && echo AssertionError || echo Error\n'
                      "exit 1\n", encoding="utf-8")
    config = OracleConfig(
        command_template=f"sh {script} {{candidate}}",
        workdir=str(tmp_path),
        signature_pattern=r"(Assertion)?Error",
        match_policy=MatchPolicy.SAME_SIGNATURE,
    )
    # Group 1 took no part in matching "Error": the fingerprint is empty.
    assert command_verdict(config, "x();") == OracleVerdict(VerdictStatus.FAIL, "exit:1")
    assert command_verdict(config, "deep();").signature == "Assertion"


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(command_template="x", timeout_ms=0,
                     match_policy=MatchPolicy.ANY_FAILURE)
    with pytest.raises(ValueError):
        OracleConfig(command_template="x", match_policy=MatchPolicy.SAME_SIGNATURE)
    with pytest.raises(ValueError, match="signature_pattern is not a regular expression"):
        OracleConfig(command_template="x", signature_pattern="(")
    with pytest.raises(ValueError, match="command_template cannot be split"):
        OracleConfig(command_template="x 'y", match_policy=MatchPolicy.ANY_FAILURE)
    for template in ("", "   "):
        with pytest.raises(ValueError, match="command_template names no command"):
            OracleConfig(command_template=template, match_policy=MatchPolicy.ANY_FAILURE)
    with pytest.raises(ValueError, match="fail_exit_codes cannot hold 0"):
        OracleConfig(command_template="x", fail_exit_codes=frozenset({0, 1}),
                     match_policy=MatchPolicy.ANY_FAILURE)


@pytest.mark.parametrize("setting, message", [
    ({"workdir": None}, "workdir must be a string"),
    ({"workdir": 3}, "workdir must be a string"),
    ({"timeout_ms": True}, "timeout_ms must be a positive integer"),
    ({"timeout_ms": 1.5}, "timeout_ms must be a positive integer"),
    ({"timeout_ms": "100"}, "timeout_ms must be a positive integer"),
    ({"timeout_ms": 0}, "timeout_ms must be a positive integer"),
    ({"timeout_ms": 2**31}, "timeout_ms must be at most 2147483647"),
    ({"fail_exit_codes": frozenset({"1"})}, "fail_exit_codes must hold integers"),
    ({"fail_exit_codes": frozenset({True})}, "fail_exit_codes must hold integers"),
    ({"fail_exit_codes": frozenset({1.0})}, "fail_exit_codes must hold integers"),
], ids=["workdir-null", "workdir-int", "timeout-bool", "timeout-float",
        "timeout-str", "timeout-zero", "timeout-above-c-int", "exit-code-str",
        "exit-code-bool", "exit-code-float"])
def test_config_field_types_are_checked(setting, message):
    # true would be a 1 ms timeout, and "1" would never equal an exit code,
    # so every failing run would read as Invalid.
    with pytest.raises(ValueError, match=f"^{message}$"):
        OracleConfig(command_template="x", match_policy=MatchPolicy.ANY_FAILURE,
                     **setting)


# -- signature normalization and policy ----------------------------------------


def test_normalize_strips_volatile_details():
    raw = ("AssertionError at /tmp/redu1234/Candidate.java:17 in 35 ms "
           "object at 0x7f3a91 line 99")
    cleaned = normalize_signature(raw)
    assert "/tmp" not in cleaned
    assert "0x7f3a91" not in cleaned
    assert ":17" not in cleaned
    assert "35 ms" not in cleaned
    assert cleaned.startswith("AssertionError")


def test_normalization_makes_line_shifts_equal():
    a = normalize_signature("AssertionError: boom at /work/a/T.java:10")
    b = normalize_signature("AssertionError: boom at /tmp/xyz/T2.java:3")
    assert a == b


def test_normalize_blanks_paths_before_addresses():
    # a temp directory name can itself contain "0x" plus hex letters
    assert (normalize_signature("AssertionError at /tmp/redustat-0xbe12/candidate.java:7")
            == "AssertionError at <path><line>")
    assert normalize_signature("Foo@0x7ffe12") == "Foo@<addr>"


def test_same_signature_policy():
    fail = OracleVerdict(VerdictStatus.FAIL, "sig-a")
    assert verdict_accepted(fail, "sig-a", MatchPolicy.SAME_SIGNATURE)
    assert not verdict_accepted(fail, "sig-b", MatchPolicy.SAME_SIGNATURE)
    assert verdict_accepted(fail, "sig-b", MatchPolicy.ANY_FAILURE)
    for status in (VerdictStatus.PASS, VerdictStatus.INVALID):
        assert not verdict_accepted(OracleVerdict(status), "sig-a",
                                    MatchPolicy.ANY_FAILURE)
