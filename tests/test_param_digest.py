import os
import re

from helpers import load_script

param_digest = load_script("param_digest")

LABELS = [*param_digest.VARIANTS, "full_cycle", "paper_fit", "paper_train", "checkpoint", "synth"]


def test_expected_file_holds_every_line_once():
    path = os.path.join(os.path.dirname(param_digest.__file__), "param_digest.expected")
    with open(path, encoding="utf-8") as fh:
        assert "numpy" in fh.readline()
    want = param_digest.read_digests(path)
    assert list(want) == LABELS
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in want.values())


def test_differing_lines_names_each_differing_label():
    want = {"full": "a", "no_SC": "b", "synth": "c"}
    got = {"full": "a", "no_SC": "x", "paper_fit": "d"}
    assert param_digest.differing_lines(want, got) == [
        "no_SC: expected b, got x",
        "synth: expected c, got no line",
        "paper_fit: expected no line, got d",
    ]
    assert param_digest.differing_lines(want, dict(want)) == []
