#!/usr/bin/env python3
"""Stretched-exponential growth from scheduled graph combinations.

A single graph's word count grows exponentially or polynomially - never
in between.  Alternating two graphs under the quartic schedule (stints
4, 12, 5, 60, 7, 168, ... with milestones at (t+1)^4) produces counts
pinched between exact integer bounds of the form rho**sqrt(n): the
exponential graph acts for ~sqrt(n) of the first n steps, the linear
graph for the rest.

This demo prints the exact bound sandwiches for both bundled systems,
the log-space envelopes, and the tell-tale "mark" of combinations:
admissible words with inadmissible subwords.

Run:  python demos/combined_stretched_growth.py
"""

import math

from symgraph import (
    asymptotic_envelopes,
    enumerate_words,
    find_inadmissible_subword,
    golden_linear_system,
    complete_linear_system,
    preset_bounds,
    quartic_schedule,
    total_count,
)


def bounds_table(name, preset, t_max):
    print(f"\n{name}: exact bounds lower < count < upper at n = (t+1)^4")
    print(f"  {'t':>2} {'n':>6} {'log lower':>10} {'log count':>10} {'log upper':>10}  holds")
    for b in preset_bounds(preset, t_max):
        print(f"  {b.t:>2} {b.n:>6} {math.log(b.lower):>10.3f} "
              f"{math.log(b.actual):>10.3f} {math.log(b.upper):>10.3f}  {b.holds}")


def main():
    sched = quartic_schedule(4)
    print(f"quartic schedule stints: {sched.stints}")
    print(f"milestones g: {sched.g}")

    bounds_table("golden + linear", "golden-linear", 6)
    bounds_table("complete + linear", "complete-linear", 8)

    print("\nstretched exponent: log3(count) / sqrt(n) for the complete+linear system")
    for t in (1, 2, 4, 8, 12):
        n = (t + 1) ** 4
        count = total_count(complete_linear_system(t), n)
        ratio = math.log(count, 3) / math.sqrt(n)
        log_f1, log_f2 = asymptotic_envelopes("complete-linear", n)
        print(f"  t={t:>2} n={n:>6}: ratio={ratio:.4f}"
              f"  (envelopes in ln: {log_f1:.1f} .. {log_f2:.1f})")
    print("  a plain exponential would make this ratio grow like sqrt(n);")
    print("  a polynomial would send it to zero - here it tends to 1.")

    print("\nsubword non-admissibility (the mark of a combination):")
    system = golden_linear_system(1)
    words5 = enumerate_words(system, 5)
    print(f"  the system generates {len(words5)} words of length 5")
    witness = find_inadmissible_subword(system, 5)
    print(f"  {witness.describe(system.alphabet)}")
    print("  (lengths up to 4 are pure golden-graph words, which lack Z->Z;")
    print("   the linear graph introduces it at step 5)")


if __name__ == "__main__":
    main()
