"""Checkpoint-journal format guarantees.

The journal must roundtrip a TrialOutcome *exactly* (frozen-dataclass
equality, including every VisibleAccess in the summary): resume
correctness rests on a journaled summary being indistinguishable from a
freshly computed one.  It must also survive the ways an interrupted
sweep can mangle the file — torn final lines, duplicates, junk.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.runner import journal as journal_module
from repro.runner import (
    TrialJournal,
    TrialOutcome,
    TrialSpec,
    TrialStatus,
    run_trial_outcome,
)
from repro.runner.journal import (
    JOURNALED_STATUSES,
    outcome_from_json,
    outcome_to_json,
)


@pytest.fixture
def ok_outcome():
    return run_trial_outcome(
        TrialSpec(victim="gdnpeu", scheme="dom-nontso", secret=1, seed=7),
        plan=None,
    )


def make_failure(status=TrialStatus.DEADLOCK):
    return TrialOutcome(
        digest="abc123",
        victim="gdnpeu",
        scheme="dom-nontso",
        secret=0,
        seed=3,
        status=status,
        attempts=2,
        error_type="DeadlockError",
        error_message="injected deadlock at cycle 50",
        cycle=50,
    )


def test_ok_outcome_json_roundtrip_is_exact(ok_outcome):
    assert ok_outcome.ok and ok_outcome.summary is not None
    restored = outcome_from_json(json.loads(json.dumps(outcome_to_json(ok_outcome))))
    assert restored == ok_outcome
    # The summary must be usable identically (ints stayed ints, enum
    # kinds survived, line ordering semantics intact).
    assert restored.summary.ab_order() == ok_outcome.summary.ab_order()
    assert restored.summary.access_cycle == ok_outcome.summary.access_cycle


def test_failure_outcome_json_roundtrip():
    failure = make_failure()
    restored = outcome_from_json(json.loads(json.dumps(outcome_to_json(failure))))
    assert restored == failure
    assert restored.status is TrialStatus.DEADLOCK


def test_journal_record_and_load(tmp_path, ok_outcome):
    journal = TrialJournal(tmp_path / "sweep.jsonl")
    journal.record(ok_outcome)
    journal.record(make_failure())
    records = journal.load()
    assert records[ok_outcome.digest] == ok_outcome
    assert records["abc123"] == make_failure()
    assert ok_outcome.digest in journal
    assert len(journal) == 2


def test_journal_last_record_wins(tmp_path, ok_outcome):
    journal = TrialJournal(tmp_path / "sweep.jsonl")
    first = make_failure()
    journal.record(first)
    # A replayed record for the same digest (attempt count differs).
    second = TrialOutcome(
        digest=first.digest,
        victim=first.victim,
        scheme=first.scheme,
        secret=first.secret,
        seed=first.seed,
        status=first.status,
        attempts=3,
        error_type=first.error_type,
        error_message=first.error_message,
        cycle=first.cycle,
    )
    journal.record(second)
    assert journal.load()[first.digest].attempts == 3


def test_journal_tolerates_torn_and_corrupt_lines(tmp_path, ok_outcome):
    path = tmp_path / "sweep.jsonl"
    journal = TrialJournal(path)
    journal.record(ok_outcome)
    with open(path, "a") as fh:
        fh.write("this is not json\n")
        fh.write('{"v": 1, "digest": "missing-fields"}\n')
        # A torn final line: the process died mid-write.
        fh.write('{"v": 1, "digest": "torn", "victim": "gd')
    records = journal.load()
    assert list(records) == [ok_outcome.digest]


def test_journal_missing_file_is_empty(tmp_path):
    journal = TrialJournal(tmp_path / "never-written.jsonl")
    assert journal.load() == {}
    assert len(journal) == 0


def test_transient_statuses_are_not_journaled():
    assert TrialStatus.OK in JOURNALED_STATUSES
    assert TrialStatus.DEADLOCK in JOURNALED_STATUSES
    assert TrialStatus.ERROR in JOURNALED_STATUSES
    # Transient infrastructure failures must re-run on resume.
    assert TrialStatus.TIMEOUT not in JOURNALED_STATUSES
    assert TrialStatus.WORKER_LOST not in JOURNALED_STATUSES


def test_spec_digest_is_stable_and_discriminating():
    a = TrialSpec(victim="gdnpeu", scheme="dom-nontso", secret=1, seed=7)
    b = TrialSpec(victim="gdnpeu", scheme="dom-nontso", secret=1, seed=7)
    c = TrialSpec(victim="gdnpeu", scheme="dom-nontso", secret=0, seed=7)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    # Pinned: changing the digest scheme silently invalidates every
    # existing journal, so it must be a deliberate decision.
    assert a.digest() == TrialSpec(
        victim="gdnpeu", scheme="dom-nontso", secret=1, seed=7
    ).digest()


# ---------------------------------------------------------------------
# the incremental index
# ---------------------------------------------------------------------
def failure_with(digest, attempts=1):
    return TrialOutcome(
        digest=digest,
        victim="gdnpeu",
        scheme="dom-nontso",
        secret=0,
        seed=3,
        status=TrialStatus.DEADLOCK,
        attempts=attempts,
        error_type="DeadlockError",
        error_message=f"injected deadlock ({digest})",
        cycle=50,
    )


def framed(outcome):
    """The exact bytes ``TrialJournal.record`` appends for ``outcome``."""
    line = json.dumps(outcome_to_json(outcome), sort_keys=True, separators=(",", ":"))
    return ("\n" + line + "\n").encode()


def count_decodes(monkeypatch):
    calls = []

    def counting(data):
        calls.append(data["digest"])
        return outcome_from_json(data)

    monkeypatch.setattr(journal_module, "outcome_from_json", counting)
    return calls


def test_second_load_decodes_only_new_records(tmp_path, monkeypatch, ok_outcome):
    journal = TrialJournal(tmp_path / "sweep.jsonl")
    journal.record(ok_outcome)
    journal.record(make_failure())
    first = journal.load()
    calls = count_decodes(monkeypatch)
    assert journal.load() == first
    assert calls == []  # no new bytes: nothing decoded
    journal.record(failure_with("later"))
    assert set(journal.load()) == set(first) | {"later"}
    assert calls == ["later"]


def test_load_returns_a_copy(tmp_path):
    journal = TrialJournal(tmp_path / "sweep.jsonl")
    journal.record(make_failure())
    journal.load().clear()
    assert list(journal.load()) == ["abc123"]


def test_second_instance_appends_reach_the_first(tmp_path, ok_outcome):
    path = tmp_path / "sweep.jsonl"
    parent = TrialJournal(path)
    parent.record(make_failure())
    assert list(parent.load()) == ["abc123"]
    # A pool worker journals into the same file through its own instance.
    worker = TrialJournal(path)
    worker.record(ok_outcome)
    worker.record(failure_with("abc123", attempts=5))
    records = parent.load()
    assert records[ok_outcome.digest] == ok_outcome
    assert records["abc123"].attempts == 5  # last record still wins


def _truncate(path, tmp_path):
    with open(path, "r+b") as fh:
        fh.truncate(len(framed(failure_with("a"))))


def _delete(path, tmp_path):
    os.remove(path)


def _replace(path, tmp_path):
    # A different, longer file under the same name: the index must not
    # read it from the old offset.
    other = tmp_path / "other.jsonl"
    writer = TrialJournal(other)
    for digest in ("x", "y", "z", "w"):
        writer.record(failure_with(digest, attempts=7))
    assert os.path.getsize(other) > os.path.getsize(path)
    os.replace(other, path)


@pytest.mark.parametrize("mutate", [_truncate, _delete, _replace])
def test_long_lived_instance_matches_a_fresh_one(tmp_path, mutate):
    path = tmp_path / "sweep.jsonl"
    journal = TrialJournal(path)
    journal.record(failure_with("a"))
    journal.record(failure_with("b"))
    assert set(journal.load()) == {"a", "b"}
    mutate(path, tmp_path)
    assert journal.load() == TrialJournal(path).load()
    journal.record(failure_with("c", attempts=2))
    assert journal.load() == TrialJournal(path).load()
    assert journal.load()["c"].attempts == 2


def test_unterminated_final_line_waits_for_the_next_append(tmp_path):
    """A valid record without its closing newline is not served: the
    writer may still be mid-append, and ``record()`` never acknowledged
    it.  The next append's leading separator terminates it, and from
    then on it loads like any other record."""
    path = tmp_path / "sweep.jsonl"
    with open(path, "wb") as fh:
        fh.write(framed(failure_with("pending"))[:-1])
    journal = TrialJournal(path)
    assert journal.load() == {}
    assert TrialJournal(path).load() == {}
    journal.record(failure_with("next"))
    assert set(journal.load()) == {"pending", "next"}
    assert journal.load() == TrialJournal(path).load()


_DIGESTS = st.sampled_from(["d0", "d1", "d2", "d3"])
_OUTCOMES = st.builds(failure_with, _DIGESTS, st.integers(1, 4))
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("record"), _OUTCOMES),
        st.tuples(st.just("other"), _OUTCOMES),
        st.tuples(
            st.just("junk"),
            st.one_of(
                st.binary(max_size=40),
                st.sampled_from([b"[1]", b"3", b"null", b'{"v":1}', b"{"]),
            ),
        ),
        st.tuples(st.just("torn"), st.tuples(_OUTCOMES, st.floats(0.0, 1.0))),
        st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(steps=_STEPS)
def test_incremental_load_equals_a_fresh_load(steps):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "sweep.jsonl")
        journal = TrialJournal(path)
        other = TrialJournal(path)
        for kind, arg in steps:
            if kind == "record":
                journal.record(arg)
            elif kind == "other":
                other.record(arg)
            elif kind == "junk":
                with open(path, "ab") as fh:
                    fh.write(arg + b"\n")
            elif kind == "torn":
                outcome, frac = arg
                payload = framed(outcome)
                with open(path, "ab") as fh:
                    fh.write(payload[: int(len(payload) * frac)])
            elif os.path.exists(path):
                with open(path, "r+b") as fh:
                    fh.truncate(int(os.path.getsize(path) * arg))
            assert journal.load() == TrialJournal(path).load()
