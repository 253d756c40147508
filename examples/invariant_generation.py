"""The invariant-generation substrate: interval and zone domains.

Run:  python examples/invariant_generation.py

The paper assumes loop postconditions "obtained from any automatic sound
static analysis technique".  This example shows the two built-in
abstract interpreters inferring @post annotations — including the
relational fact i > n the paper's running example relies on — and how
annotation strength changes what the diagnosis engine must ask.
"""

from repro.abstract import annotate_program, infer_loop_posts
from repro.analysis import analyze_program
from repro.diagnosis import ExhaustiveOracle, diagnose_error
from repro.lang import parse_program

SOURCE = """
program foo(flag, unsigned n) {
  var k = 1, i = 0, j = 0;
  if (flag != 0) { k = n * n; }
  while (i <= n) {
    i = i + 1;
    j = j + i;
  }
  var z = k + i + j;
  assert(z > 2 * n);
}
"""


def main() -> None:
    program = parse_program(SOURCE)

    for domains in (("interval",), ("zone",), ("interval", "zone")):
        posts = infer_loop_posts(program, domains)
        print(f"domains {'+'.join(domains)}:")
        for label, facts in sorted(posts.items()):
            rendered = " && ".join(str(f) for f in facts) or "(nothing)"
            print(f"  loop {label}: {rendered}")
    print()

    annotated = annotate_program(program)
    print("annotated loop post:", annotated.loops()[0].post)
    print()

    analysis = analyze_program(annotated)
    oracle = ExhaustiveOracle(annotated, analysis, radius=5)
    result = diagnose_error(analysis, oracle)
    print(f"diagnosis with auto-inferred invariants: "
          f"{result.classification} after {result.num_queries} queries")
    for interaction in result.interactions:
        print(f"  Q: {interaction.query.text}")
        print(f"  A: {interaction.answer.value}")


if __name__ == "__main__":
    main()
