"""Table 5: CVE elimination + live attack suite.

Paper shape: GR's three design levers eliminate the whole corpus of
GPU-stack CVEs in at least one deployment scenario, and fabricated
recordings cannot break the replayer's verified guarantees.
"""

from repro.bench.experiments import cve_elimination


def test_tab05_cves(experiment):
    table = experiment(cve_elimination)
    assert len(table.rows) == 9
    # Every corpus CVE is eliminated by some deployment.
    assert any("D2: eliminates 9/9" in note for note in table.notes)
    # The executable attack suite all blocked.
    assert any("6/6" in note and "attack" in note
               for note in table.notes)
