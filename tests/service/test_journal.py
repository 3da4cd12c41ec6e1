"""Journal encode/replay tests: CRCs, torn tails, interior corruption."""

import json
import os
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.service.journal import (
    SCHEMA,
    CheckpointRecord,
    GrantRecord,
    JournalCorruptError,
    PlanJournal,
    ReleaseRecord,
    decode_line,
    encode_line,
    read_grants,
    replay,
)


def grant(seq: int, job: str = "job-a", cores: int = 8) -> GrantRecord:
    return GrantRecord(
        seq=seq,
        job=job,
        params_digest=f"digest-{seq:04d}",
        cores=cores,
        splits=(0, 3, 3, 0),
        reason="offload wins",
    )


class TestLineCodec:
    def test_roundtrip(self):
        record = grant(1).to_dict()
        assert decode_line(encode_line(record)) == record

    def test_canonical_encoding_is_stable(self):
        record = grant(1).to_dict()
        assert encode_line(record) == encode_line(dict(reversed(list(record.items()))))

    def test_flipped_byte_fails_crc(self):
        line = encode_line(grant(1).to_dict())
        damaged = line.replace("job-a", "job-b")
        with pytest.raises(ValueError, match="crc"):
            decode_line(damaged)

    def test_missing_crc_rejected(self):
        with pytest.raises(ValueError, match="no crc"):
            decode_line(json.dumps({"kind": "grant"}))


class TestReplay:
    def test_missing_file_is_empty_state(self, tmp_path):
        state = replay(str(tmp_path / "nope.jsonl"))
        assert state.grants == []
        assert state.committed == {}
        assert state.next_seq == 1
        assert not state.truncated_tail

    def test_grants_and_releases_rebuild_commitments(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with PlanJournal(path) as journal:
            journal.append_grant(grant(1, "job-a", cores=8))
            journal.append_grant(grant(2, "job-b", cores=4))
            journal.append_release(ReleaseRecord(seq=3, job="job-a", cores=8))
        state = replay(path)
        assert [g.seq for g in state.grants] == [1, 2]
        assert state.committed == {"job-b": 4}
        assert state.next_seq == 4

    def test_regrant_replaces_commitment(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with PlanJournal(path) as journal:
            journal.append_grant(grant(1, "job-a", cores=8))
            journal.append_grant(grant(2, "job-a", cores=12))
        state = replay(path)
        assert state.committed == {"job-a": 12}
        assert state.active_grants["job-a"].seq == 2

    def test_checkpoint_overrides_commitments(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with PlanJournal(path) as journal:
            journal.append_grant(grant(1, "job-a"))
            journal.append_checkpoint(2, {"job-z": 6})
        state = replay(path)
        assert state.committed == {"job-z": 6}
        assert state.next_seq == 3

    def test_torn_tail_dropped_and_flagged(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with PlanJournal(path) as journal:
            journal.append_grant(grant(1))
        with open(path, "a") as handle:
            handle.write('{"kind":"grant","seq":2,"jo')  # crash mid-append
        state = replay(path)
        assert state.truncated_tail
        assert [g.seq for g in state.grants] == [1]

    def test_interior_corruption_raises(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with PlanJournal(path) as journal:
            journal.append_grant(grant(1))
            journal.append_grant(grant(2))
        lines = open(path).read().splitlines()
        lines[1] = lines[1].replace("job-a", "job-X")  # not the tail
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError, match="refusing to skip"):
            replay(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w") as handle:
            handle.write(
                encode_line({"kind": "header", "schema": "bogus/v9", "seq": 0})
                + "\n"
            )
        with pytest.raises(JournalCorruptError, match=SCHEMA):
            replay(path)

    def test_no_wall_timestamps_in_journal(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with PlanJournal(path) as journal:
            journal.append_grant(grant(1))
            journal.append_release(ReleaseRecord(seq=2, job="job-a", cores=8))
            journal.append_checkpoint(3, {})
        for line in open(path).read().splitlines():
            record = decode_line(line)
            assert not any("time" in key for key in record)


class TestPlanJournal:
    def test_reopen_resumes_appending(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with PlanJournal(path) as journal:
            journal.append_grant(grant(1))
        with PlanJournal(path) as journal:
            assert journal.recovered.next_seq == 2
            journal.append_grant(grant(2))
        assert [g.seq for g in read_grants(path)] == [1, 2]

    def test_open_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with PlanJournal(path) as journal:
            journal.append_grant(grant(1))
        with open(path, "a") as handle:
            handle.write("garbage")
        with PlanJournal(path) as journal:
            assert journal.recovered.truncated_tail
            journal.append_grant(grant(2))
        # The torn line is gone; the journal replays cleanly end to end.
        state = replay(path)
        assert not state.truncated_tail
        assert [g.seq for g in state.grants] == [1, 2]

    def test_append_after_close_raises(self, tmp_path):
        journal = PlanJournal(str(tmp_path / "journal.jsonl"))
        journal.close()
        with pytest.raises(ValueError, match="closed"):
            journal.append_grant(grant(1))

    def test_checkpoint_record_sorts_jobs(self):
        record = CheckpointRecord(seq=5, committed=(("a", 1), ("b", 2)))
        assert record.to_dict()["committed"] == {"a": 1, "b": 2}


def write_journal(path: str, grants: int) -> bytes:
    """A journal of ``grants`` grants (seq 1..n); returns its bytes."""
    with PlanJournal(path, sync=False) as journal:
        for seq in range(1, grants + 1):
            journal.append_grant(grant(seq, job=f"job-{seq}"))
    with open(path, "rb") as handle:
        return handle.read()


def overwrite(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)


class TestRecoveryNeverDropsAGrant:
    """Only an unterminated last line is torn; anything else is corruption."""

    def test_flipped_byte_in_complete_last_line_raises(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        data = write_journal(path, grants=3)
        damaged = bytearray(data)
        damaged[data.rindex(b"job-3") + 4] = ord("9")  # the newline survives
        overwrite(path, bytes(damaged))
        with pytest.raises(JournalCorruptError, match="refusing to skip"):
            replay(path)

    def test_complete_last_line_is_never_truncated_on_open(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        data = write_journal(path, grants=3)
        damaged = data.replace(b"job-3", b"job-9")
        overwrite(path, damaged)
        with pytest.raises(JournalCorruptError):
            PlanJournal(path)
        with open(path, "rb") as handle:
            assert handle.read() == damaged  # left for an operator to inspect

    @pytest.mark.parametrize("where", ["interior", "tail"])
    def test_non_utf8_byte_is_corruption_or_torn(self, tmp_path, where):
        path = str(tmp_path / "journal.jsonl")
        data = write_journal(path, grants=3)
        if where == "interior":
            at = data.index(b"job-2")
            overwrite(path, data[:at] + b"\xff" + data[at + 1:])
            with pytest.raises(JournalCorruptError):
                replay(path)
        else:
            overwrite(path, data + b'{"kind":"gr\xff')
            state = replay(path)
            assert state.truncated_tail
            assert [g.seq for g in state.grants] == [1, 2, 3]

    def test_carriage_return_is_not_a_line_break(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        data = write_journal(path, grants=2)
        at = data.index(b"job-1")
        overwrite(path, data[:at] + b"\r" + data[at + 1:])
        with pytest.raises(JournalCorruptError, match=":2:"):
            replay(path)

    def test_unterminated_valid_last_line_is_torn(self, tmp_path):
        """A crash before the newline: never acknowledged, so dropped."""
        path = str(tmp_path / "journal.jsonl")
        data = write_journal(path, grants=2)
        overwrite(path, data[:-1])
        state = replay(path)
        assert state.truncated_tail
        assert [g.seq for g in state.grants] == [1]
        with PlanJournal(path) as journal:
            journal.append_grant(grant(3, job="job-3"))
        assert [g.seq for g in read_grants(path)] == [1, 3]

    def test_torn_tail_repair_is_fsynced_in_place(self, tmp_path, monkeypatch):
        path = str(tmp_path / "journal.jsonl")
        data = write_journal(path, grants=2)
        overwrite(path, data + b'{"kind":"grant","seq":3,"jo')
        synced = []
        monkeypatch.setattr(
            "repro.service.journal.os.fsync", lambda fd: synced.append(fd)
        )
        with PlanJournal(path, sync=False) as journal:
            assert journal.recovered.truncated_tail
        assert synced, "the repaired journal was never fsynced"
        with open(path, "rb") as handle:
            assert handle.read() == data

    def test_torn_header_reopens_as_a_fresh_journal(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        data = write_journal(path, grants=0)
        overwrite(path, data[:10])
        with PlanJournal(path) as journal:
            assert journal.recovered.truncated_tail
            journal.append_grant(grant(1))
        assert [g.seq for g in read_grants(path)] == [1]


def _line_ends(data: bytes):
    return [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]


class TestRecoveryProperties:
    @settings(max_examples=150, deadline=None)
    @given(grants=st.integers(1, 4), cut=st.floats(0.0, 1.0))
    def test_cut_journal_replays_and_reopens_to_a_prefix(self, grants, cut):
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "journal.jsonl")
            data = write_journal(path, grants)
            offset = int(cut * len(data))
            overwrite(path, data[:offset])
            # Line 0 is the header; each later complete line is one grant.
            kept = max(0, sum(1 for end in _line_ends(data) if end <= offset) - 1)
            state = replay(path)
            assert [g.seq for g in state.grants] == list(range(1, kept + 1))
            assert state.truncated_tail == (offset not in [0, *_line_ends(data)])
            with PlanJournal(path, sync=False) as journal:
                journal.append_grant(grant(99, job="new"))
            assert [g.seq for g in read_grants(path)] == [*range(1, kept + 1), 99]

    @settings(max_examples=300, deadline=None)
    @given(grants=st.integers(1, 4), at=st.floats(0.0, 1.0), value=st.integers(0, 255))
    def test_flipped_byte_raises_or_drops_only_an_unterminated_line(
        self, grants, at, value
    ):
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "journal.jsonl")
            data = write_journal(path, grants)
            index = min(int(at * len(data)), len(data) - 1)
            assume(data[index] != value)
            damaged = bytearray(data)
            damaged[index] = value
            overwrite(path, bytes(damaged))
            written = list(range(1, grants + 1))
            try:
                state = replay(path)
            except JournalCorruptError:
                return
            seqs = [g.seq for g in state.grants]
            if index == len(data) - 1:
                # The last newline is gone: only that line is torn.
                assert state.truncated_tail and seqs == written[:-1]
            else:
                assert not state.truncated_tail and seqs == written
