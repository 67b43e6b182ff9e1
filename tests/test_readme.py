"""The README's claims about the package that a test can check."""

import re
from pathlib import Path

import cicyweb

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_api_highlights_are_exported():
    text = README.read_text(encoding="utf-8")
    # the intro sentence and the bullet list after it
    section = "\n\n".join(text.split("Highlights of the public API", 1)[1].split("\n\n")[:2])
    names = set(re.findall(r"`([^`]+)`", section)) - {"cicyweb"}
    assert names
    assert sorted(names - set(cicyweb.__all__)) == []
