"""The mutation census of `tools/mutcensus.py` on a fixed subset of the
goldens, one golden or more per kind of reason: every mutant that still
verifies has its reason in the tool's table, every entry of the table for
these goldens still matches a survivor, and each golden keeps its count."""

import importlib.util
from pathlib import Path

from test_golden import PROBLEMS

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutcensus", ROOT / "tools" / "mutcensus.py")
mutcensus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutcensus)

#: golden -> (mutants, survivors)
SUBSET = {
    "analyze-profile": (11, 5),
    "analyze-contracting-no": (20, 3),
    "pingpong-oracle": (8, 5),
    "synthesize-truncated-prodense": (6, 6),
    "synthesize-double-coset": (25, 5),
    "tree-classify": (10, 4),
    "tree-pingpong-refuted": (129, 8),
}


def test_the_census_of_a_fixed_subset_matches_its_table():
    counts = mutcensus.census(SUBSET)
    assert mutcensus.unlisted(counts) == []
    assert mutcensus.unused(counts) == []
    assert {name: (mutants, len(found)) for name, (mutants, found) in counts.items()} == SUBSET


def test_the_table_names_only_goldens():
    assert {name for goldens, _, _ in mutcensus.SURVIVORS for name in goldens} <= PROBLEMS.keys()


def test_a_survivor_the_table_lacks_and_an_entry_no_survivor_matches_are_reported():
    counts = {"tree-classify": (10, ["result.axis_edge.0.0", "result.kind"])}
    assert mutcensus.unlisted(counts) == [("tree-classify", "result.kind")]
    counts = {"analyze-contracting-no": (20, ["claims.1.attract.0"])}
    reason = next(reason for _, pattern, reason in mutcensus.SURVIVORS if pattern == "claims.1.repel.*")
    assert mutcensus.unused(counts) == [("analyze-contracting-no", "claims.1.repel.*", reason)]
