"""Unit tests for :mod:`repro.obs.profile` — the sampling profiler.

The sampler runs against hand-built frame objects and a
:class:`TickClock`, so every profile here is byte-deterministic; the
one real-thread test only asserts liveness, not timing.  The
integration with the runtime engine (worker profiles, envelope replay,
ledger gauges) is locked in ``test_runtime_profile.py``.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    DEFAULT_HZ,
    PROFILE_REPORT_SCHEMA,
    PROFILE_SCHEMA,
    Profile,
    SamplingProfiler,
    TickClock,
    build_report,
    collapsed_text,
    decode_speedscope,
    load_speedscope,
    parse_collapsed,
    report_gauges,
    speedscope_document,
    validate_collapsed,
    validate_speedscope,
    write_speedscope,
)
from repro.obs.profile import (
    MAX_STACK_DEPTH,
    frame_label,
    shorten_path,
    walk_stack,
)


class FakeCode:
    def __init__(self, name, filename, line):
        self.co_name = name
        self.co_filename = filename
        self.co_firstlineno = line


class FakeFrame:
    """Just enough of a frame for :func:`walk_stack`."""

    def __init__(self, name, filename, line, back=None):
        self.f_code = FakeCode(name, filename, line)
        self.f_back = back


def fake_stack(*frames):
    """Build a linked frame chain from (name, file, line) triples,
    root first; returns the *innermost* frame (the frame-source shape)."""
    frame = None
    for name, filename, line in frames:
        frame = FakeFrame(name, filename, line, back=frame)
    return frame


def make_profile(*stacks):
    profile = Profile()
    for frames, weight in stacks:
        profile.add_stack(frames, weight)
    return profile


STACK_A = (("main", "repro/cli.py", 10), ("classify", "repro/core/classify.py", 59))
STACK_B = (("main", "repro/cli.py", 10), ("locate", "repro/geoloc/ipmap.py", 30))


class TestStackWalking:
    def test_repo_paths_collapse_to_repro_suffix(self):
        assert (
            shorten_path("/srv/checkout/src/repro/core/classify.py")
            == "repro/core/classify.py"
        )

    def test_foreign_paths_keep_last_two_components(self):
        assert (
            shorten_path("/usr/lib/python3.11/urllib/parse.py")
            == "urllib/parse.py"
        )
        assert shorten_path("") == ""

    def test_windows_separators_are_normalized(self):
        assert (
            shorten_path("C:\\repo\\src\\repro\\cli.py") == "repro/cli.py"
        )

    def test_frame_label_is_file_colon_name(self):
        assert frame_label(("classify", "repro/core/classify.py", 59)) == (
            "repro/core/classify.py:classify"
        )

    def test_walk_stack_orders_root_first(self):
        frame = fake_stack(
            ("outer", "/root/repo/src/repro/cli.py", 1),
            ("inner", "/srv/checkout/src/repro/core/classify.py", 59),
        )
        assert walk_stack(frame) == (
            ("outer", "repro/cli.py", 1),
            ("inner", "repro/core/classify.py", 59),
        )

    def test_runaway_recursion_is_truncated(self):
        frame = fake_stack(*[("f", "a/b.py", 1)] * (MAX_STACK_DEPTH + 50))
        assert len(walk_stack(frame)) == MAX_STACK_DEPTH


class TestProfile:
    def test_weights_accumulate_per_stack(self):
        profile = make_profile((STACK_A, 100), (STACK_A, 50), (STACK_B, 25))
        assert len(profile) == 2
        assert profile.weight_us == 175
        assert profile.seconds == pytest.approx(175e-6)

    def test_negative_weight_rejected(self):
        with pytest.raises(ObservabilityError, match=">= 0"):
            Profile().add_stack(STACK_A, -1)

    def test_empty_stack_is_a_no_op(self):
        profile = Profile()
        profile.add_stack((), 100)
        assert len(profile) == 0

    def test_merge_is_commutative(self):
        a1 = make_profile((STACK_A, 100), (STACK_B, 7))
        b1 = make_profile((STACK_A, 3), (STACK_B, 11))
        a2 = make_profile((STACK_A, 100), (STACK_B, 7))
        b2 = make_profile((STACK_A, 3), (STACK_B, 11))
        assert a1.merge(b1) == b2.merge(a2)

    def test_merge_is_associative(self):
        def abc():
            return (
                make_profile((STACK_A, 13)),
                make_profile((STACK_A, 5), (STACK_B, 2)),
                make_profile((STACK_B, 99)),
            )

        a, b, c = abc()
        left = a.merge(b).merge(c)
        a, b, c = abc()
        right = a.merge(b.merge(c))
        assert left == right

    def test_dict_round_trip(self):
        profile = make_profile((STACK_A, 100), (STACK_B, 25))
        payload = profile.to_dict()
        assert payload["schema"] == PROFILE_SCHEMA
        assert Profile.from_dict(payload) == profile

    def test_from_dict_rejects_wrong_schema_and_malformed_stacks(self):
        with pytest.raises(ObservabilityError, match="schema"):
            Profile.from_dict({"schema": "nope", "stacks": []})
        with pytest.raises(ObservabilityError, match="malformed"):
            Profile.from_dict(
                {"schema": PROFILE_SCHEMA, "stacks": [{"frames": "x"}]}
            )

    def test_self_vs_total_time(self):
        profile = make_profile((STACK_A, 100), (STACK_B, 25))
        root = ("main", "repro/cli.py", 10)
        assert profile.self_us().get(root) is None  # never a leaf
        assert profile.total_us()[root] == 125

    def test_recursive_frames_count_total_once(self):
        frame = ("f", "a/b.py", 1)
        profile = make_profile(((frame, frame, frame), 40))
        assert profile.total_us() == {frame: 40}
        assert profile.self_us() == {frame: 40}

    def test_function_table_sorted_by_self_time(self):
        profile = make_profile((STACK_A, 100), (STACK_B, 25))
        rows = profile.function_table()
        assert rows[0]["func"] == "repro/core/classify.py:classify"
        assert rows[0]["share"] == pytest.approx(100 / 125)
        assert profile.function_table(top=1) == rows[:1]

    def test_renderers_cover_empty_and_populated(self):
        assert Profile().render_table() == "(no samples recorded)"
        assert Profile().render_flame() == "(no samples recorded)"
        profile = make_profile((STACK_A, 100), (STACK_B, 25))
        table = profile.render_table(top=1)
        assert "repro/core/classify.py:classify" in table
        flame = profile.render_flame()
        assert flame.splitlines()[0].startswith("repro/cli.py:main")
        assert "  repro/core/classify.py:classify" in flame


class TestSampler:
    def test_hz_must_be_positive(self):
        with pytest.raises(ObservabilityError, match="hz"):
            SamplingProfiler(hz=0)

    def test_sample_once_is_deterministic(self):
        def frames():
            return {
                2: fake_stack(("b", "x/b.py", 2)),
                1: fake_stack(("a", "x/a.py", 1)),
            }

        profiler = SamplingProfiler(hz=1000.0, frame_source=frames)
        assert profiler.sample_once() == 2
        expected = make_profile(
            ((("a", "x/a.py", 1),), 1000),
            ((("b", "x/b.py", 2),), 1000),
        )
        assert profiler.snapshot() == expected

    def test_sample_once_excludes_named_threads(self):
        def frames():
            return {1: fake_stack(("a", "x/a.py", 1)),
                    2: fake_stack(("b", "x/b.py", 2))}

        profiler = SamplingProfiler(hz=1000.0, frame_source=frames)
        assert profiler.sample_once(exclude=(2,)) == 1
        assert profiler.snapshot() == make_profile(
            ((("a", "x/a.py", 1),), 1000)
        )

    def test_sample_for_takes_a_deterministic_sample_count(self):
        def frames():
            return {1: fake_stack(("a", "x/a.py", 1))}

        profiler = SamplingProfiler(
            hz=2000.0, frame_source=frames, clock=TickClock(step=1.0)
        )
        # wall readings tick 0,1,2,...: deadline 0+3, samples at 1 and 2.
        profile = profiler.sample_for(3.0)
        assert profile.weight_us == 2 * profiler.period_us

    def test_sample_for_rejects_non_positive_duration(self):
        with pytest.raises(ObservabilityError, match="duration"):
            SamplingProfiler(hz=10.0).sample_for(0)

    def test_start_twice_is_an_error(self):
        profiler = SamplingProfiler(
            hz=1000.0, frame_source=lambda: {}
        )
        profiler.start()
        try:
            with pytest.raises(ObservabilityError, match="already running"):
                profiler.start()
        finally:
            profiler.stop()

    def test_real_thread_sampling_smoke(self):
        profiler = SamplingProfiler(hz=500.0)
        profiler.start()
        deadline = time.monotonic() + 5.0
        try:
            while not len(profiler.snapshot()):
                assert time.monotonic() < deadline, "no samples in 5s"
                threading.Event().wait(0.01)
        finally:
            profile = profiler.stop()
        assert profile.weight_us > 0
        # This very test function is on the sampled main-thread stack.
        assert any(
            name == "test_real_thread_sampling_smoke"
            for stack, _ in profile.stacks()
            for name, _path, _line in stack
        )


class TestCollapsed:
    def test_round_trip_zeroes_line_numbers(self):
        profile = make_profile((STACK_A, 100), (STACK_B, 25))
        text = collapsed_text(profile)
        validate_collapsed(text)
        expected = make_profile(
            (tuple((n, p, 0) for n, p, _ in STACK_A), 100),
            (tuple((n, p, 0) for n, p, _ in STACK_B), 25),
        )
        assert parse_collapsed(text) == expected

    def test_lines_are_sorted_and_weighted(self):
        text = collapsed_text(make_profile((STACK_B, 25), (STACK_A, 100)))
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert lines[0].endswith(" 100")

    def test_empty_profile_is_empty_text(self):
        assert collapsed_text(Profile()) == ""
        validate_collapsed("")

    @pytest.mark.parametrize("bad", [
        "stack_without_weight",
        "frame;frame -3",
        "frame;;frame 10",
        "frame 1.5",
    ])
    def test_malformed_lines_rejected(self, bad):
        with pytest.raises(ObservabilityError):
            validate_collapsed(bad)

    def test_non_text_rejected(self):
        with pytest.raises(ObservabilityError, match="text"):
            validate_collapsed(b"bytes")


class TestSpeedscope:
    def test_document_validates_and_decodes_exactly(self):
        profile = make_profile((STACK_A, 100), (STACK_B, 25))
        document = speedscope_document(profile, name="unit")
        validate_speedscope(document)
        assert document["exporter"] == PROFILE_SCHEMA
        assert document["profiles"][0]["name"] == "unit"
        assert decode_speedscope(document) == profile

    def test_write_and_load_round_trip(self, tmp_path):
        profile = make_profile((STACK_A, 100), (STACK_B, 25))
        path = tmp_path / "profile.json"
        assert write_speedscope(profile, path) == 2
        assert load_speedscope(path) == profile

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ObservabilityError, match="cannot read"):
            load_speedscope(path)
        with pytest.raises(ObservabilityError, match="cannot read"):
            load_speedscope(tmp_path / "missing.json")

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update({"$schema": "x"}), "schema"),
        (lambda d: d["shared"].pop("frames"), "shared.frames"),
        (lambda d: d.update({"profiles": []}), "no 'profiles'"),
        (lambda d: d["profiles"][0].update({"type": "evented"}), "sampled"),
        (lambda d: d["profiles"][0]["weights"].pop(), "weights"),
        (lambda d: d["profiles"][0]["samples"][0].append(99), "outside"),
        (
            lambda d: d["profiles"][0]["weights"].__setitem__(0, -1),
            "non-negative",
        ),
        (
            lambda d: d["profiles"][0]["samples"].__setitem__(0, []),
            "non-empty",
        ),
    ])
    def test_validator_rejects_mutations(self, mutate, message):
        document = speedscope_document(
            make_profile((STACK_A, 100), (STACK_B, 25))
        )
        mutate(document)
        with pytest.raises(ObservabilityError, match=message):
            validate_speedscope(document)

    def test_multi_profile_documents_decode_to_the_union(self):
        a = speedscope_document(make_profile((STACK_A, 100)))
        b = speedscope_document(make_profile((STACK_A, 11), (STACK_B, 25)))
        a["profiles"].extend(b["profiles"])
        a["shared"]["frames"] = b["shared"]["frames"]
        # Frame sets differ, so rebuild profile 0's indices against the
        # union frame table before decoding.
        frames = [
            (f["name"], f["file"], f["line"]) for f in b["shared"]["frames"]
        ]
        a["profiles"][0]["samples"] = [
            [frames.index(frame) for frame in STACK_A]
        ]
        merged = make_profile((STACK_A, 111), (STACK_B, 25))
        assert decode_speedscope(a) == merged

    def test_document_is_json_serializable(self):
        document = speedscope_document(make_profile((STACK_A, 100)))
        assert json.loads(json.dumps(document)) == document


class TestReport:
    def test_report_shape_and_total_row(self):
        report = build_report(
            {"panel": make_profile((STACK_A, 2_000_000), (STACK_B, 500_000))},
            hz=DEFAULT_HZ,
        )
        assert report["schema"] == PROFILE_REPORT_SCHEMA
        assert report["hz"] == DEFAULT_HZ
        stage = report["stages"]["panel"]
        assert stage["seconds"] == pytest.approx(2.5)
        assert stage["stacks"] == 2
        assert stage["self_s"]["_total"] == pytest.approx(2.5)
        assert stage["self_s"]["repro/core/classify.py:classify"] == (
            pytest.approx(2.0)
        )

    def test_top_bounds_the_hot_set_but_never_total(self):
        report = build_report(
            {"panel": make_profile((STACK_A, 100), (STACK_B, 25))},
            hz=97.0, top=1,
        )
        self_s = report["stages"]["panel"]["self_s"]
        assert set(self_s) == {"_total", "repro/core/classify.py:classify"}

    def test_empty_stage_still_reports_total(self):
        report = build_report({"panel": Profile()}, hz=97.0)
        assert report["stages"]["panel"]["self_s"] == {"_total": 0.0}

    def test_gauges_key_shape(self):
        report = build_report(
            {"panel": make_profile((STACK_A, 1_000_000))}, hz=97.0
        )
        gauges = report_gauges(report)
        key = "profile.self_s{func=_total,stage=panel}"
        assert gauges[key] == {"kind": "gauge", "value": 1.0}
        assert all(entry["kind"] == "gauge" for entry in gauges.values())
        assert (
            "profile.self_s{func=repro/core/classify.py:classify,stage=panel}"
            in gauges
        )

    def test_gauges_reject_malformed_reports(self):
        with pytest.raises(ObservabilityError, match="schema"):
            report_gauges({"schema": "nope"})
        with pytest.raises(ObservabilityError, match="stages"):
            report_gauges({"schema": PROFILE_REPORT_SCHEMA})
        with pytest.raises(ObservabilityError, match="_total"):
            report_gauges({
                "schema": PROFILE_REPORT_SCHEMA,
                "stages": {"panel": {"self_s": {}}},
            })
        with pytest.raises(ObservabilityError, match="numeric"):
            report_gauges({
                "schema": PROFILE_REPORT_SCHEMA,
                "stages": {"panel": {"self_s": {"_total": True}}},
            })
