import os
import re

from helpers import load_script

param_digest = load_script("param_digest")

LABELS = [*param_digest.VARIANTS, "full_cycle", "paper_fit", "paper_train", "checkpoint", "synth"]


EXPECTED = os.path.join(os.path.dirname(param_digest.__file__), "param_digest.expected")


def test_expected_file_holds_every_line_once():
    with open(EXPECTED, encoding="utf-8") as fh:
        assert "numpy" in fh.readline()
    want = param_digest.read_digests(EXPECTED)
    assert list(want) == LABELS
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in want.values())


def test_environment_note_names_both_environments_only_when_they_differ(tmp_path):
    recorded = param_digest.read_environment(EXPECTED)
    assert recorded.startswith("numpy ")
    assert param_digest.environment_note(recorded, recorded) == ""
    running = "numpy 9.9.9; other-blas 1.0; some CPU"
    assert param_digest.environment_note(recorded, running) == (
        f"recorded under {recorded}; running under {running}")
    bare = tmp_path / "bare.expected"
    bare.write_text("full " + "0" * 64 + "\n")
    assert param_digest.read_environment(str(bare)) is None
    assert param_digest.environment_note(None, running) == (
        f"recorded under no environment line; running under {running}")


def test_differing_lines_names_each_differing_label():
    want = {"full": "a", "no_SC": "b", "synth": "c"}
    got = {"full": "a", "no_SC": "x", "paper_fit": "d"}
    assert param_digest.differing_lines(want, got) == [
        "no_SC: expected b, got x",
        "synth: expected c, got no line",
        "paper_fit: expected no line, got d",
    ]
    assert param_digest.differing_lines(want, dict(want)) == []
