"""The committed output digest (``golden.py``): every output of its grid is
what ``golden.json`` records. A change meant to keep outputs leaves the file
as it is; one that changes them rewrites it with ``python tests/golden.py
--write`` and names each changed key."""

import json

import golden


def test_outputs_match_the_committed_digest():
    committed = json.loads(golden.GOLDEN.read_text())
    found = golden.digests()
    assert sorted(found) == sorted(committed)
    assert [key for key in found if found[key] != committed[key]] == []
