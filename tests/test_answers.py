"""The package answers every operation of the committed answer corpus as it did when the corpus was made."""

from answers import CORPUS, SEEDS, answer, read


def test_the_corpus_answers_unchanged():
    rows = read()
    kinds = {kind for kind, *_ in rows}
    assert len(rows) == 261 * len(SEEDS) and {"sqrt_omega", "square_big_m", "star"} <= kinds
    changed = [(kind, call, m, inputs, want, got) for kind, call, m, inputs, want in rows
               if (got := answer(call, m, inputs)) != want]
    assert changed == [], f"{len(changed)} of {len(rows)} answers differ from {CORPUS.name}"
