"""Tour of the frequency-mixing process catalog.

Every entry pairs a resonance condition with a transition between bare
states and the weakest interaction model able to mediate it (odd excitation
change needs the longitudinal term, even nonzero needs counter-rotating
terms, zero change survives the rotating-wave approximation). The script
prints the summary counts, shows two destructive-interference cases where
the path sum vanishes identically on resonance, and cross-checks a few
entries against their analytic coupling formulas.

Run:  python3 demos/process_catalog_tour.py
"""

import warnings

from rabimix import effective_coupling, interaction_for, list_processes
from rabimix.catalog import (
    build_system,
    default_frequencies,
    distinct_transition_count,
    get_process,
    verify_entry,
)


def main():
    three = list_processes(category="three-wave")
    four = list_processes(category="four-wave")
    print(f"three-wave entries: {len(three)} ({distinct_transition_count(1)} distinct)")
    print(f"four-wave entries:  {len(four)} ({distinct_transition_count(2)} distinct)")
    print()

    print("interference zeros (coupling vanishes exactly on resonance):")
    for pid in ("thg_1r3q", "hyper_raman_2_stokes"):
        entry = get_process(pid)
        freqs = default_frequencies(entry)
        spec = build_system(entry, freqs)
        hint = interaction_for(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ec = effective_coupling(
                hint, entry.initial.instantiate(0), entry.final.instantiate(0)
            )
        biggest = max(abs(p.contribution) for p in ec.paths)
        print(f"  {pid}: |sum over {len(ec.paths)} paths| = {abs(ec.value):.2e}, "
              f"largest single path {biggest:.2e}")
    print()

    print("path sum vs analytic formula:")
    for pid in ("shg_2r1q", "thg_2r1q", "raman_spont_stokes", "kerr_dispersive"):
        report = verify_entry(get_process(pid))
        print(f"  {pid}: relative error {report.relative_error:.2e} "
              f"({'PASS' if report.passed else 'FAIL'})")


if __name__ == "__main__":
    main()
