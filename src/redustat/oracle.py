"""Failure oracles: decide whether a candidate test still fails the same way.

An oracle is any object with a ``match_policy`` and a method
``verdict(retained, ast) -> OracleVerdict`` that judges the candidate keeping
the ``retained`` statement ids of ``ast``. ``retained`` is a read-only set
that is valid only during the call: the reducer hands out a view of its live
state, so an oracle that keeps the set must copy it with
``frozenset(retained)``. :func:`evaluate` is the single call point; the
reducer never looks at an oracle's type. Two oracles ship:

- :class:`OracleConfig` renders the candidate, writes it to a file in a fresh
  temporary directory, substitutes its path into a command template, and
  classifies the run by exit code plus an optional failure-fingerprint regex.
  The directory, with anything the command wrote next to the candidate, is
  removed when the run ends. This is the bridge to real build/test tooling.
- :class:`ScriptedOracle` decides directly on retained statement-id sets,
  giving cheap deterministic ground truth for experiments and tests.

Exit-code contract for external commands: an exit code in
``fail_exit_codes`` means Fail (subject to the signature policy), 0 means
Pass, and anything else (including timeouts and non-compiling candidates) is
Invalid. Invalid is deliberately distinct from a spawn failure: a candidate
that cannot even be attempted aborts the reduction instead of being treated
as "not failing". Settings that no run could honour are refused with
``ValueError`` when the :class:`OracleConfig` is built, before any command
runs: a ``match_policy`` that is not a :class:`MatchPolicy`, a
``signature_pattern`` that is not a regular expression, a
``command_template`` that is not a string, that shlex cannot split or that
names no command, a ``workdir`` that is not a string, a ``timeout_ms`` that is
not a positive ``int`` or exceeds 2**31 - 1 (the largest wait the poll
selector takes), and a ``fail_exit_codes`` member that is not an ``int`` or
is 0 (exit 0 is always Pass); :class:`ScriptedOracle` refuses a
``failure_sets`` or ``blockers`` member that is not an ``int``. A ``bool`` is
no ``int`` here.

Verdict evaluation blocks. Distinct oracle instances may run concurrently in
different working directories, but one OracleConfig must not be invoked
concurrently with itself: the command typically mutates its workdir.
"""

from __future__ import annotations

import contextlib
import os
import re
import shlex
import signal
import subprocess
import tempfile
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, ClassVar, Protocol

from .model import TestCaseAst, render


class VerdictStatus(Enum):
    FAIL = "Fail"
    PASS = "Pass"
    INVALID = "Invalid"


class MatchPolicy(Enum):
    ANY_FAILURE = "any"
    SAME_SIGNATURE = "same"


#: Signature reported by scripted oracles; constant because the scripted
#: failure predicate has no output to fingerprint.
SCRIPTED_SIGNATURE = "scripted"

#: Environment variable pointing the command under test at the candidate file.
CANDIDATE_ENV_VAR = "REDUSTAT_CANDIDATE"

#: File name of the candidate inside its per-run directory.
CANDIDATE_FILE = "candidate.java"


class OracleSpawnError(RuntimeError):
    """The oracle command could not be started at all."""


class OriginalDoesNotFailError(ValueError):
    """The unreduced test does not fail; reduction must not start."""


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of evaluating one candidate."""

    status: VerdictStatus
    signature: str = ""

    def __post_init__(self) -> None:
        if (self.status is VerdictStatus.FAIL) != bool(self.signature):
            raise ValueError("a verdict is Fail if and only if it carries a "
                             "non-empty signature")


class Oracle(Protocol):
    """What the reducer needs of an oracle.

    ``retained`` is read-only and valid only during the call; an oracle that
    keeps it must copy it with ``frozenset(retained)``. A reducer view
    implements ``in``, ``len``, iteration and the memoised ``>=`` itself.
    Every other ``Set`` operation (``&``, ``isdisjoint``, ``<=``, ``==``)
    comes from ``collections.abc.Set`` at the cost of its other operand.

    A verdict is read as a property of the candidate's text: the reducer
    sends no candidate twice after a rejection, as long as that candidate is
    the one removing the same statement would give, and its 1-minimality
    certificate rests on that one run per removal. An Invalid verdict, a
    timeout included, is remembered like any other rejection.
    """

    match_policy: MatchPolicy

    def verdict(self, retained: AbstractSet[int], ast: TestCaseAst) -> OracleVerdict:
        ...


@dataclass(frozen=True)
class OracleConfig:
    """Configuration of an external-command oracle.

    ``command_template`` is split with shlex; every occurrence of the
    ``{candidate}`` placeholder is replaced by the candidate file path. The
    same path is exported as ``REDUSTAT_CANDIDATE``.
    """

    command_template: str
    workdir: str = "."
    timeout_ms: int = 60_000
    fail_exit_codes: frozenset[int] = frozenset({1})
    signature_pattern: str | None = None
    match_policy: MatchPolicy = MatchPolicy.SAME_SIGNATURE

    def __post_init__(self) -> None:
        if type(self.match_policy) is not MatchPolicy:
            raise ValueError("match_policy must be a MatchPolicy")
        if not isinstance(self.workdir, str):
            raise ValueError("workdir must be a string")
        # A bool is an int, but true is no timeout.
        if type(self.timeout_ms) is not int or self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be a positive integer")
        # The poll selector takes its wait as a C int of milliseconds.
        if self.timeout_ms > 2**31 - 1:
            raise ValueError("timeout_ms must be at most 2147483647")
        if self.signature_pattern is not None and not isinstance(self.signature_pattern, str):
            raise ValueError("signature_pattern must be a string")
        if self.match_policy is MatchPolicy.SAME_SIGNATURE and not self.signature_pattern:
            raise ValueError("signature_pattern is required under the "
                             "SameSignature policy")
        if self.signature_pattern:
            try:
                re.compile(self.signature_pattern)
            except re.error as exc:
                raise ValueError(f"signature_pattern is not a regular expression: "
                                 f"{exc}") from None
        # shlex.split(None) reads standard input before Python 3.12.
        if not isinstance(self.command_template, str):
            raise ValueError("command_template must be a string")
        try:
            words = shlex.split(self.command_template)
        except ValueError as exc:
            raise ValueError(f"command_template cannot be split: {exc}") from None
        if not words:
            raise ValueError("command_template names no command")
        # "1" or true never equals a return code: every failure would be Invalid.
        if any(type(code) is not int for code in self.fail_exit_codes):
            raise ValueError("fail_exit_codes must hold integers")
        if 0 in self.fail_exit_codes:
            raise ValueError("fail_exit_codes cannot hold 0, which means Pass")

    def verdict(self, retained: AbstractSet[int], ast: TestCaseAst) -> OracleVerdict:
        return _run_external_once(self, render(ast, retained))


@dataclass(frozen=True)
class ScriptedOracle:
    """Deterministic oracle over retained statement-id sets.

    A candidate fails when it retains some ``failure_set`` entirely. With
    empty ``blockers`` the predicate is monotone: any superset of a failing
    set fails too.

    Non-empty ``blockers`` model entangled statements that break the failure
    when partially removed: a candidate retaining *some but not all* blocker
    ids passes no matter what. Retaining every blocker (in particular, the
    unreduced test) or none of them leaves the failure-set rule in charge,
    which makes the predicate non-monotone while the original test still
    fails.
    """

    failure_sets: tuple[frozenset[int], ...]
    blockers: frozenset[int] = frozenset()
    # Every failing verdict carries SCRIPTED_SIGNATURE, so no other policy
    # would reduce differently.
    match_policy: ClassVar[MatchPolicy] = MatchPolicy.ANY_FAILURE

    def __post_init__(self) -> None:
        if not self.failure_sets:
            raise ValueError("at least one failure set is required")
        if any(not fs for fs in self.failure_sets):
            raise ValueError("failure sets must be non-empty")
        # true or 1.0 would quietly mean statement 1, and "1" no statement.
        if any(type(i) is not int for ids in (*self.failure_sets, self.blockers)
               for i in ids):
            raise ValueError("failure_sets and blockers must hold integers")

    def fails(self, retained: AbstractSet[int]) -> bool:
        # On a reducer view, ``isdisjoint`` costs the blockers.
        if self.blockers and not (retained >= self.blockers
                                  or retained.isdisjoint(self.blockers)):
            return False  # some but not all blockers retained
        for fs in self.failure_sets:
            if retained >= fs:
                return True
        return False

    def verdict(self, retained: AbstractSet[int], ast: TestCaseAst) -> OracleVerdict:
        return _SCRIPTED_FAIL if self.fails(retained) else _PASS


_SCRIPTED_FAIL = OracleVerdict(VerdictStatus.FAIL, SCRIPTED_SIGNATURE)
_PASS = OracleVerdict(VerdictStatus.PASS)
_INVALID = OracleVerdict(VerdictStatus.INVALID)


def evaluate(oracle: Oracle, retained: AbstractSet[int],
             ast: TestCaseAst) -> OracleVerdict:
    """Evaluate the candidate that keeps the ``retained`` statements of ``ast``."""
    return oracle.verdict(retained, ast)


def baseline_signature(oracle: Oracle, original: TestCaseAst) -> str:
    """Signature of the unreduced test's failure.

    Raises :class:`OriginalDoesNotFailError` when the full test passes or is
    Invalid, in which case reduction must not start.
    """
    verdict = evaluate(oracle, original.all_ids(), original)
    if verdict.status is not VerdictStatus.FAIL:
        raise OriginalDoesNotFailError(
            f"original test does not fail (verdict: {verdict.status.value})")
    return verdict.signature


def _run_external_once(config: OracleConfig, source_text: str) -> OracleVerdict:
    # A fresh directory per run: the candidate and whatever the command
    # writes next to it are removed when the run ends.
    with tempfile.TemporaryDirectory(prefix="redustat-",
                                     ignore_cleanup_errors=True) as scratch:
        candidate_path = os.path.join(scratch, CANDIDATE_FILE)
        with open(candidate_path, "w", encoding="utf-8") as handle:
            handle.write(source_text)
        argv = [
            part.replace("{candidate}", candidate_path)
            for part in shlex.split(config.command_template)
        ]
        env = dict(os.environ, **{CANDIDATE_ENV_VAR: candidate_path})
        try:
            # A session of its own, so that the end of the run can kill
            # everything the command started, not just the command itself.
            # The session also keeps the terminal's Ctrl-C from the command,
            # so an interruption here kills the group as well.
            proc = subprocess.Popen(
                argv,
                cwd=config.workdir,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                errors="replace",
                start_new_session=True,
            )
        except OSError as exc:
            raise OracleSpawnError(f"cannot run oracle command {argv!r}: {exc}") from exc
        with proc:
            try:
                stdout, stderr = proc.communicate(timeout=config.timeout_ms / 1000.0)
            except subprocess.TimeoutExpired:
                return _INVALID
            finally:
                # Also after a normal exit: a background child left running
                # would still write to the workdir while the next candidate
                # runs there.
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)

    if proc.returncode == 0:
        return _PASS
    if proc.returncode in config.fail_exit_codes:
        signature = _extract_signature(config, stdout + stderr, proc.returncode)
        return OracleVerdict(VerdictStatus.FAIL, signature)
    return _INVALID


def _extract_signature(config: OracleConfig, output: str, returncode: int) -> str:
    if config.signature_pattern:
        match = re.search(config.signature_pattern, output)
        if match:
            # A group 1 that took no part in the match is empty.
            raw = (match.group(1) or "") if match.groups() else match.group(0)
            normalized = normalize_signature(raw)
            if normalized:
                return normalized
    # Failing exit code with nothing to fingerprint: fall back to the exit
    # code itself so the Fail invariant (non-empty signature) holds.
    return f"exit:{returncode}"


_ADDRESS_RE = re.compile(r"0x[0-9A-Fa-f]+")
_PATH_RE = re.compile(r"(?:[A-Za-z]:)?(?:[\\/][\w.\-+]+)+")
_LINE_RE = re.compile(r"(?:\bline\s+\d+|:\d+(?::\d+)?)")
_DURATION_RE = re.compile(r"\b\d+(?:\.\d+)?\s*(?:ms|s|sec|secs|seconds)\b")


def normalize_signature(text: str) -> str:
    """Canonicalize a failure fingerprint before comparison.

    Reduction legitimately changes line numbers, timings, temp-file paths
    and addresses, so those are blanked out.
    """
    # Paths first: a temp path may itself contain "0x" plus hex letters.
    text = _PATH_RE.sub("<path>", text)
    text = _ADDRESS_RE.sub("<addr>", text)
    text = _LINE_RE.sub("<line>", text)
    text = _DURATION_RE.sub("<dur>", text)
    return " ".join(text.split())


def verdict_accepted(verdict: OracleVerdict, baseline: str,
                     policy: MatchPolicy) -> bool:
    """Does this verdict count as "still failing" under the policy?"""
    if verdict.status is not VerdictStatus.FAIL:
        return False
    if policy is MatchPolicy.ANY_FAILURE:
        return True
    return verdict.signature == baseline
