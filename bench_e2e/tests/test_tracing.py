"""Span arithmetic, nesting, iterator attribution, install/restore."""

from bench_e2e import tracing
from bench_e2e.tracing import Span, Tracer, aggregate


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("root", 1, None, 0, 100),
        Span("a", 1, 0, 10, 40),
        Span("a.leaf", 1, 1, 20, 30),
        Span("b", 1, 0, 50, 70),
        Span("b", 1, 0, 70, 75),
    ]
    totals = aggregate(spans)
    assert totals["root"] == (1, 100, 100 - 30 - 20 - 5)
    assert totals["a"] == (1, 30, 20)
    assert totals["a.leaf"] == (1, 10, 10)
    assert totals["b"] == (2, 25, 25)
    # Every nanosecond of the root is some span's self time.
    assert sum(entry.self_ns for entry in totals.values()) == 100


def test_nested_spans_of_one_name_count_their_total_once():
    spans = [
        Span("x", None, None, 0, 10),
        Span("x", None, 0, 2, 5),
        Span("y", None, 1, 3, 4),
    ]
    totals = aggregate(spans)
    assert totals["x"] == (2, 10, (10 - 3) + (3 - 1))
    assert totals["y"] == (1, 1, 1)


def test_wrapped_calls_nest_and_carry_the_op_id():
    tracer = Tracer()

    def leaf():
        return 1

    def branch():
        return traced_leaf() + traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_branch = tracer.wrap("branch", branch)
    tracer.op_id = 7
    with tracer.span(tracing.ROOT_SPAN):
        assert traced_branch() == 2
    spans = tracer.finish()
    names = [span[0] for span in spans]
    assert names == [tracing.ROOT_SPAN, "branch", "leaf", "leaf"]
    assert [span[1] for span in spans] == [7, 7, 7, 7]
    assert [span[2] for span in spans] == [None, 0, 1, 1]
    totals = aggregate(spans)
    assert totals["branch"].self_ns == (
        totals["branch"].total_ns - totals["leaf"].total_ns)


def test_op_of_overrides_the_op_for_the_span_and_its_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda batch: inner(),
                        op_of=lambda args: args[0][0])
    tracer.op_id = "current"
    outer(["first", "second"])
    assert [(span[0], span[1]) for span in tracer.finish()] == [
        ("outer", "first"), ("inner", "first")]
    assert tracer.op_id == "current"


def test_iterator_time_leaves_its_consumer_not_its_creator():
    tracer = Tracer()

    def produce():
        for value in range(3):
            yield value

    traced_produce = tracer.wrap_iterator("produce", produce)

    def create():
        return traced_produce()

    def consume(rows):
        return sum(rows)

    rows = tracer.wrap("create", create)()
    assert tracer.wrap("consume", consume)(rows) == 3
    spans = tracer.finish()
    by_name = {span[0]: span for span in spans}
    consumer = spans.index(by_name["consume"])
    assert by_name["produce"][2] == consumer
    totals = aggregate(spans)
    assert totals["consume"].self_ns == (
        totals["consume"].total_ns - totals["produce"].total_ns)
    assert totals["create"].self_ns == totals["create"].total_ns


def test_an_abandoned_iterator_is_closed_by_finish():
    tracer = Tracer()
    rows = tracer.wrap_iterator("produce", lambda: iter(range(5)))()
    assert next(rows) == 0
    spans = tracer.finish()
    assert [span[0] for span in spans] == ["produce"]


def test_install_and_restore_leave_every_attribute_identical():
    targets = [tracing.resolve(target)
               for _name, _kind, group in tracing.SPAN_TABLE
               for target in group]
    before = [vars(owner)[attr] for owner, attr in targets]
    tracer = Tracer()
    with tracing.tracing(tracer):
        during = [vars(owner)[attr] for owner, attr in targets]
        assert all(new is not old for new, old in zip(during, before))
    after = [vars(owner)[attr] for owner, attr in targets]
    assert all(new is old for new, old in zip(after, before))


def test_a_classmethod_stays_a_classmethod_while_wrapped():
    from repro.recovery.journal import RunJournal

    with tracing.tracing(Tracer()):
        assert isinstance(vars(RunJournal)["open"], classmethod)
    assert isinstance(vars(RunJournal)["open"], classmethod)


def test_span_names_are_unique():
    assert len(set(tracing.SPAN_NAMES)) == len(tracing.SPAN_NAMES)
