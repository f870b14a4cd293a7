"""Every acceptance-corpus op reproduces its committed output digest.

The corpus is the hand fixtures plus random_pairs(200, seed=CORPUS_SEED),
each under the three ops.  An op's output is the `.lpr` text of its inner,
exact and outer results, and its digest the first 16 hex digits of that
text's SHA-256, as committed in perfbench/fingerprints.json (only read
here).  A change that keeps every `.lpr` byte keeps all 642 digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from latbool import sandwich, write_region
from latbool.arrangement import OPS
from latbool.fixtures import hand_fixture_pairs, random_pairs

from conftest import CORPUS_SEED

FINGERPRINTS = (Path(__file__).resolve().parents[1] / "perfbench"
                / "fingerprints.json")


def test_corpus_outputs_match_committed_digests():
    committed = json.loads(FINGERPRINTS.read_text())["corpus"]["digests"]
    got = {}
    for name, a, b in (hand_fixture_pairs()
                       + random_pairs(200, seed=CORPUS_SEED)):
        for op in OPS:
            inner, exact, outer = sandwich(a, b, op)
            text = "".join(write_region(r)
                           for r in (inner, exact.region, outer))
            got[f"{name}/{op}"] = hashlib.sha256(
                text.encode()).hexdigest()[:16]
    assert len(got) == 642
    wrong = sorted(k for k in got.keys() | committed.keys()
                   if got.get(k) != committed.get(k))
    assert not wrong, f"{len(wrong)} ops differ, first: {wrong[:5]}"
