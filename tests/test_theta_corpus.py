"""The theta layer's golden corpus (``theta_corpus.txt``), replayed in process.

Every entry must give its recorded outcome: floats by ``float.hex``, raised errors by type and
message, CLI runs by exit code, stdout and stderr. ``theta_corpus.py`` writes the file and holds the
calls; its docstring says when to regenerate.
"""

from __future__ import annotations

import theta_corpus


def _recorded() -> tuple[list[str], list[tuple[str, str]]]:
    text = theta_corpus.CORPUS.read_text().splitlines()
    header = [line for line in text if line.startswith("#")]
    return header, [tuple(line.split("\t", 1)) for line in text if not line.startswith("#")]


def test_every_entry_replays_its_recorded_outcome():
    header, recorded = _recorded()
    replayed = [tuple(line.split("\t", 1)) for line in theta_corpus.lines()]
    assert [key for key, _ in replayed] == [key for key, _ in recorded]
    moved = [(key, was, now) for (key, was), (_, now) in zip(recorded, replayed) if was != now]
    assert not moved, f"{len(moved)} of {len(recorded)} entries moved (corpus {header[0]}); first: {moved[:3]}"


def test_header_names_the_platform():
    header, _ = _recorded()
    assert header[0].startswith("# numpy ") and " scipy " in header[0] and " machine " in header[0]
