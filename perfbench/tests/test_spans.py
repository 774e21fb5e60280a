import time

from spans import SpanRecorder, Summary


class Layer:
    @classmethod
    def parse(cls, text):
        time.sleep(0.002)
        return text.split()

    def work(self):
        time.sleep(0.01)
        return Layer.parse("a b")


def test_self_time_excludes_children(tmp_path):
    recorder = SpanRecorder()
    recorder.patch(Layer, "parse", "parse",
                   attrs=lambda result, args: {"words": len(result)})
    recorder.patch(Layer, "work", "work")
    try:
        assert Layer().work() == ["a", "b"]
        assert Layer.parse("x") == ["x"]
    finally:
        Layer.parse = classmethod(Layer.parse.__func__.__wrapped__)
        Layer.work = Layer.work.__wrapped__
    path = tmp_path / "spans.jsonl"
    recorder.write(path)
    from spans import read_spans

    spans = read_spans(path)
    assert [s["name"] for s in spans] == ["parse", "work", "parse"]
    parse, work, alone = spans
    assert parse["parent"] == work["id"]
    assert parse["trace"] == work["trace"] == work["id"]
    assert alone["parent"] == 0 and alone["trace"] == alone["id"]
    summary = Summary(spans)
    assert summary.calls["parse"] == 2
    assert summary.attr_sum("parse", "words") == 3
    work_busy = work["end"] - work["start"]
    parse_busy = parse["end"] - parse["start"]
    assert abs(summary.self_time["work"] - (work_busy - parse_busy)) < 1e-9
    assert summary.self_time["work"] >= 0.009
    alone_busy = alone["end"] - alone["start"]
    unattributed = summary.self_time["work"] + alone_busy
    assert abs(summary.unattributed_share
               - unattributed / (work_busy + alone_busy)) < 1e-9
