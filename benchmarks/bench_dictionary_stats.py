"""F1 — BRISC generation statistics.

The paper reports compressor internals: 93,211 candidates tested for
gcc-2.6.3, a final dictionary of 1232 patterns (981 for the lcc program),
at most 244 successor patterns per Markov context, and a 224-pattern base
instruction set.  This bench regenerates those statistics for our suite
and checks their magnitudes and monotonicity.
"""


from conftest import save_table
from repro.bench import compressed_suite, render_table


def test_dictionary_statistics(benchmark, results_dir):
    names = ["wc", "lcc"]
    cps = benchmark.pedantic(
        lambda: {n: compressed_suite(n) for n in names},
        rounds=1, iterations=1)

    rows = []
    for name in names:
        cp = cps[name]
        rows.append([
            name,
            str(cp.build.candidates_tested),
            str(cp.build.base_patterns),
            str(cp.build.dictionary_size),
            str(cp.image.pattern_count),
            str(cp.image.max_successors),
            str(cp.build.passes),
        ])
    text = render_table(
        ["program", "candidates", "base", "dictionary", "used patterns",
         "max successors", "passes"],
        rows)
    save_table(results_dir, "dictionary_stats", text)

    wc, lcc = cps["wc"], cps["lcc"]
    # Shape claims mirroring the paper's numbers:
    # candidates scale strongly with program size (93,211 for gcc).
    assert lcc.build.candidates_tested > 50 * max(1, wc.build.candidates_tested)
    # a large input learns a real dictionary beyond the base patterns
    # (981/1232 in the paper).
    assert lcc.build.dictionary_size > lcc.build.base_patterns
    # every context's successor table fits the opcode byte (≤244 in the
    # paper; ≤256 with our escape).
    assert lcc.image.max_successors <= 256


def test_candidate_generation_throughput(benchmark):
    """One full first-pass savings refresh over the wc program (the
    compressor's hot loop), as a tracked micro-benchmark."""
    from repro.brisc.builder import BriscBuilder
    from repro.corpus import build_input

    program = build_input("wc").program

    def first_pass():
        builder = BriscBuilder(program, k=20)
        builder._refresh_savings()
        return builder._savings

    savings = benchmark(first_pass)
    assert savings
