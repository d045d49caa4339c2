"""Property tests: the linear-time LIKE matcher agrees with a regex oracle."""

import re

from hypothesis import given, settings, strategies as st

from repro.engine.expr import EvalContext, LikeExpr, Literal, RowLayout

#: Small alphabets make wildcard collisions frequent, which is where
#: greedy matchers go wrong if they ever will.
subjects = st.text(alphabet="abc", max_size=12)
patterns = st.text(alphabet="abc%_", max_size=8)


def regex_like(subject: str, pattern: str) -> bool:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.fullmatch("".join(out), subject, re.DOTALL) is not None


def evaluate(expr):
    fn, _static_ops = expr.compile(RowLayout([]), EvalContext())
    return fn(())


def engine_like(subject: str, pattern: str) -> bool:
    return evaluate(LikeExpr(Literal(subject), pattern))


@given(subjects, patterns)
@settings(max_examples=500)
def test_matches_regex_oracle(subject, pattern):
    assert engine_like(subject, pattern) == regex_like(subject, pattern)


@given(subjects)
def test_percent_matches_everything(subject):
    assert engine_like(subject, "%")


@given(subjects)
def test_self_pattern_matches(subject):
    assert engine_like(subject, subject) or "%" in subject or "_" in subject


@given(subjects, patterns)
@settings(max_examples=200)
def test_negation_complements(subject, pattern):
    positive = evaluate(LikeExpr(Literal(subject), pattern))
    negative = evaluate(LikeExpr(Literal(subject), pattern, negated=True))
    assert positive != negative


def test_pathological_pattern_is_fast():
    import time

    subject = "a" * 5000
    pattern = "%a" * 12 + "%b"
    start = time.time()
    assert not engine_like(subject, pattern)
    assert time.time() - start < 0.5  # a backtracking regex would hang
