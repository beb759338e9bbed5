"""Each line of ``mutation_equivalents.txt`` names a mutant that
``mutation_sweep.py`` still makes.  The sweep only matches survivors
against the lines, so a line whose site a change rewrote would otherwise
go unnoticed."""

import mutation_sweep
from mutants import ROOT


def test_each_listed_equivalent_is_a_site_of_its_module():
    made: dict[str, set[str]] = {}
    stale = []
    for line in sorted(mutation_sweep.listed()):
        module = line.split(" | ", 1)[0]
        if module not in made:
            source = (ROOT / "src" / "pqk" / module).read_text()
            made[module] = {mutation_sweep.key(module, source, node, change)
                            for node, change, _ in mutation_sweep.sites(source)}
        if line not in made[module]:
            stale.append(line)
    assert stale == []
