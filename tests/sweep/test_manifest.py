"""The sweep manifest over the durable JSONL store: torn tails and corruption.

A resumed sweep appends a new segment to the manifest its killed
predecessor left; the segment must survive a torn last line, and a
corrupt line in the middle must fail loudly instead of silently dropping
every later member.
"""

import pytest

from repro.sweep import SweepManifest, read_manifest, validate_manifest


def _segment(path, members, *, append, resumed, final=True):
    with SweepManifest(path, append=append) as manifest:
        manifest.header(
            sweep_name="tiny", sweep_sha256="abc", n_members=2,
            cache_dir="cache", workers=2, resumed=resumed,
        )
        for member_id in members:
            manifest.member(member_id, "started", attempt=1)
            manifest.member(
                member_id, "done", attempt=1,
                summary_path=f"members/{member_id}/run_summary.json",
            )
        if final:
            manifest.final({"sweep": "tiny", "done": len(members)})


def test_append_after_torn_tail_is_visible_and_validates(tmp_path):
    path = tmp_path / "manifest.jsonl"
    _segment(path, ["0000", "0001"], append=False, resumed=False, final=False)
    text = path.read_text()
    path.write_text(text[: len(text) - 20])  # 0001's done row, torn mid-write
    assert validate_manifest(path)["members"] == {"done": 1, "started": 1}

    _segment(path, ["0001"], append=True, resumed=True)
    records = read_manifest(path)
    assert [r["resumed"] for r in records if r["record"] == "header"] == [False, True]
    report = validate_manifest(path)
    assert report["complete"]
    assert report["members"] == {"done": 2}


def test_corrupt_middle_line_raises(tmp_path):
    path = tmp_path / "manifest.jsonl"
    _segment(path, ["0000", "0001"], append=False, resumed=False)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:10]  # not the tail: real corruption
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="corrupt line 3"):
        read_manifest(path)
    with pytest.raises(ValueError, match="corrupt line 3"):
        validate_manifest(path)

