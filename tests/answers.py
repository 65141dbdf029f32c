"""The answer corpus: every square-test operation of the benchmark at seeds 1 and 7, with its answer.

tests/data/answers.txt holds one operation a line, tab-separated: the
operation's kind, the call (is_square_binomial, sqrt_in_field or star),
m, the call's rational inputs after the field, and the repr of the
result, or the exception's type and text. test_answers.py replays every
line and compares the text.

The inputs were drawn once, from perfbench/workloads.py's SquareTest at
seeds 1 and 7: each seed's ops were built against a stand-in package
whose fields, elements and calls return their own arguments, and one
round's calls were written down in the round's order, both pinned
failures included. They are stored, not drawn again, so that a change
to the benchmark cannot move the corpus.

    python tests/answers.py --rewrite   # recompute the answers of the stored inputs

The program is imported from the checkout's src/, next to this tests/ directory.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "data" / "answers.txt"
SEEDS = (1, 7)


def answer(call: str, m: int, inputs: tuple[Fraction, ...]) -> str:
    """The repr of the call's result on these inputs, or its exception's type and text."""
    import purecubic as pc

    try:
        K = pc.CubicField(m)
        if call == "is_square_binomial":
            result = pc.is_square_binomial(K, *inputs)
        elif call == "sqrt_in_field":
            result = pc.sqrt_in_field(K.element(*inputs))
        else:
            result = pc.star(K.element(*inputs[:3]), K.element(*inputs[3:]))
    except Exception as exc:  # the corpus records every failure as an answer
        return f"{type(exc).__name__}: {exc}"
    return repr(result)


def read(path: Path = CORPUS) -> list[tuple[str, str, int, tuple[Fraction, ...], str]]:
    rows = []
    for line in path.read_text().splitlines():
        kind, call, m, *inputs, got = line.split("\t")
        rows.append((kind, call, int(m), tuple(Fraction(x) for x in inputs), got))
    return rows


def write(rows, path: Path = CORPUS) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join("\t".join([kind, call, str(m), *map(str, inputs), answer(call, m, inputs)]) + "\n"
                            for kind, call, m, inputs in rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rewrite", action="store_true", required=True,
                        help="recompute the answers of the stored inputs")
    parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    rows = [row[:4] for row in read()]
    write(rows)
    print(f"{len(rows)} answers written to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
