"""The audit's golden axis: run ``a`` of every case against the committed
``AUDIT_golden.json``.

* Every pinned case reproduces its committed golden entry on every
  FULL_KEYS key, and the record covers exactly the pinned cases.
* The oracle is not vacuous: a flipped digest fails and names the case
  and the key; a missing entry and a stale entry each fail.
* Recording is deterministic: re-recording a case writes the committed
  entry byte for byte.
"""

import json

import pytest

from repro import audit

CASE = "chaos:vs:23"


def committed():
    return audit.load_golden(audit.GOLDEN_PATH)


def write(path, entries):
    audit.write_golden(str(path), entries)
    return str(path)


def test_golden_covers_exactly_the_pinned_cases():
    assert sorted(committed()) == sorted(audit.CASES)


@pytest.mark.parametrize("case_id", list(audit.CASES))
def test_case_matches_committed_golden(case_id):
    payload = audit.execute_variant(case_id, "a")
    failures = audit.compare_to_golden({case_id: payload},
                                       {case_id: committed()[case_id]})
    assert not failures, failures[0].render()


def test_flipped_digest_fails_naming_case_and_key(tmp_path):
    entries = committed()
    digest = entries[CASE]["trace"]
    entries[CASE]["trace"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    outcome = audit.run_audit([CASE], golden=write(tmp_path / "g.json", entries))
    assert not outcome.ok
    [failure] = outcome.failures
    assert failure.case_id == CASE
    assert failure.axis == "golden"
    assert failure.diverging_keys == ("trace",)
    assert f"FAIL {CASE} [golden]" in failure.render()


def test_missing_entry_fails(tmp_path):
    entries = committed()
    del entries[CASE]
    outcome = audit.run_audit([CASE], golden=write(tmp_path / "g.json", entries))
    [failure] = outcome.failures
    assert (failure.case_id, failure.axis) == (CASE, "golden")
    assert "no golden entry" in failure.detail


def test_stale_entry_fails(tmp_path):
    entries = committed()
    entries["chaos:vs:999"] = entries[CASE]
    outcome = audit.run_audit([CASE], golden=write(tmp_path / "g.json", entries))
    assert outcome.passed == [CASE]
    [failure] = outcome.failures
    assert (failure.case_id, failure.axis) == ("chaos:vs:999", "golden")
    assert "no longer exists" in failure.detail


def test_missing_file_fails_every_selected_case(tmp_path):
    outcome = audit.run_audit([CASE], golden=str(tmp_path / "absent.json"))
    assert [(f.case_id, f.axis) for f in outcome.failures] == [(CASE, "golden")]


def test_record_rewrites_selected_entries_and_drops_stale(tmp_path):
    entries = committed()
    entries[CASE] = {"state": "stale"}
    entries["chaos:vs:999"] = {"state": "stale"}
    path = write(tmp_path / "g.json", entries)
    outcome = audit.run_audit([CASE], golden=path, record=True)
    assert outcome.ok and outcome.recorded == path
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    with open(audit.GOLDEN_PATH, encoding="utf-8") as handle:
        assert text == handle.read()
    assert json.loads(text)[CASE] == committed()[CASE]
