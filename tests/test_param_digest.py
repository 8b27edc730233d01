import importlib.util
import os
import re

_SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
_spec = importlib.util.spec_from_file_location(
    "param_digest", os.path.join(_SCRIPTS, "param_digest.py"))
param_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(param_digest)

LABELS = [*param_digest.VARIANTS, "full_cycle", "paper_fit", "paper_train", "checkpoint", "synth"]


def test_expected_file_holds_every_line_once():
    path = os.path.join(_SCRIPTS, "param_digest.expected")
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
