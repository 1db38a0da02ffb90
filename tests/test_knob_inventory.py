"""The ``REPRO_*`` knob inventory: code and README name the same set.

Every public environment variable the package reads must have a row in
README.md's knob table, and every row must name a variable the code
still reads.  Names with a leading underscore (``_REPRO_*``) would be
private plumbing between a parent process and its own child, not knobs.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: a public knob name: not preceded by an identifier character, so the
#: private ``_REPRO_*`` names never match
_KNOB = re.compile(r"(?<![A-Za-z0-9_])REPRO_[A-Z_]+")

#: a README table row whose first cell is a knob name
_ROW = re.compile(r"^\| `(REPRO_[A-Z_]+)` \|", re.MULTILINE)


def _source_knobs() -> set:
    names = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        names.update(_KNOB.findall(path.read_text(encoding="utf-8")))
    return names


def _readme_rows() -> list:
    return _ROW.findall((ROOT / "README.md").read_text(encoding="utf-8"))


def test_readme_table_matches_knobs_read_under_src():
    assert set(_readme_rows()) == _source_knobs()


def test_each_knob_has_exactly_one_row():
    rows = _readme_rows()
    assert len(rows) == len(set(rows))
