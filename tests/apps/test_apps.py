"""Structure and golden-model tests for the evaluation applications."""

import numpy as np
import pytest

from repro.apps import APPS, dnn, fir, uni_dma, uni_lea, uni_temp, weather
from repro.core.run import nv_state, run_program
from repro.ir import ast as A
from repro.kernel.power import NoFailures

RUNTIMES = ("alpaca", "ink", "easeio")


class TestRegistry:
    def test_all_five_applications_present(self):
        assert {"uni_dma", "uni_temp", "uni_lea", "fir", "weather"} <= set(APPS)

    def test_registry_is_exactly_apps_plus_fuzz_slot(self):
        assert set(APPS) == {
            "uni_dma", "uni_temp", "uni_lea", "fir", "weather", "fuzz",
        }

    def test_specs_are_complete(self):
        for spec in APPS.values():
            assert spec.result_vars
            assert spec.description
            program = spec.build()
            program.validate()


class TestTable3Structure:
    @pytest.mark.parametrize("name", ["uni_dma", "uni_temp", "uni_lea"])
    def test_uni_task_apps_have_three_tasks(self, name):
        assert len(APPS[name].build().tasks) == 3

    def test_fir_has_five_tasks(self):
        assert len(APPS["fir"].build().tasks) == 5

    def test_weather_has_eleven_tasks(self):
        assert len(APPS["weather"].build().tasks) == 11

    def test_fir_contains_three_main_dmas_plus_probe(self):
        program = APPS["fir"].build()
        task = program.task("t_filter")
        dmas = [s for s in task.walk() if isinstance(s, A.DMACopy)]
        assert len(dmas) == 3  # in, coeffs, out (paper's three DMAs)

    def test_weather_has_io_block_with_timely_member(self):
        program = APPS["weather"].build()
        sense = program.task("t_sense")
        blocks = [s for s in sense.walk() if isinstance(s, A.IOBlock)]
        assert len(blocks) == 1
        member_semantics = {
            s.annotation.semantic.value
            for s in blocks[0].body
            if isinstance(s, A.IOCall)
        }
        assert member_semantics == {"Timely", "Always"}


class TestContinuousCorrectness:
    """Under continuous power all runtimes agree and match the goldens."""

    @pytest.mark.parametrize("rt", RUNTIMES)
    def test_fir_matches_golden(self, rt):
        result = run_program(
            fir.build(), runtime=rt, failure_model=NoFailures(), seed=2
        )
        assert fir.check_consistency(nv_state(result, fir.RESULT_VARS))

    @pytest.mark.parametrize("rt", RUNTIMES)
    @pytest.mark.parametrize("buffers", ["single", "double"])
    def test_weather_matches_golden(self, rt, buffers):
        result = run_program(
            weather.build(buffers=buffers), runtime=rt,
            failure_model=NoFailures(), seed=2,
        )
        assert weather.check_consistency(nv_state(result, weather.RESULT_VARS))

    def test_uni_dma_checksum(self):
        result = run_program(
            uni_dma.build(rounds=1), runtime="alpaca",
            failure_model=NoFailures(),
        )
        state = nv_state(result, uni_dma.RESULT_VARS)
        src = [(i * 7 + 3) % 251 for i in range(8)]
        assert state["checksum"] == sum(src)
        assert list(state["probe"]) == src

    def test_uni_lea_filtered_output(self):
        result = run_program(
            uni_lea.build(rounds=1), runtime="alpaca",
            failure_model=NoFailures(),
        )
        probe = nv_state(result, ("probe",))["probe"]
        n_in = 128 + 16 - 1
        sig = np.array([((i * 13) % 101) - 50 for i in range(n_in)], np.int64)
        coef = np.array([((i * 5) % 17) - 8 for i in range(16)], np.int64)
        expected = [int(np.int16(np.dot(sig[i : i + 16], coef))) for i in range(8)]
        assert list(probe) == expected

    def test_uni_temp_mean_in_sensor_range(self):
        result = run_program(
            uni_temp.build(), runtime="alpaca", failure_model=NoFailures(),
            seed=4,
        )
        mean = nv_state(result, ("mean_x100",))["mean_x100"] / 100.0
        assert -5.0 < mean < 25.0  # sensor base 10, amplitude 6, noise


def _per_pixel_inference(luminance):
    """The weather golden model written out pixel by pixel: the
    reference the vectorized one must match bit for bit."""
    img = np.empty(dnn.IMG * dnn.IMG, dtype=np.int16)
    for i in range(img.size):
        img[i] = np.int16((luminance + i * 3) % 97 - 48)
    k1 = np.array([1, 0, -1, 2, 0, -2, 1, 0, -1], dtype=np.int16).reshape(3, 3)
    k2 = np.array([0, 1, 0, 1, -4, 1, 0, 1, 0], dtype=np.int16).reshape(3, 3)
    fc_w = np.array(
        [((i * 7 + 3) % 11) - 5 for i in range(dnn.CLASSES * dnn.FLAT)],
        dtype=np.int16,
    ).reshape(dnn.CLASSES, dnn.FLAT)

    def conv(img2d, ker):
        side = img2d.shape[0]
        out_side = side - ker.shape[0] + 1
        out = np.empty((out_side, out_side), dtype=np.int32)
        for r in range(out_side):
            for c in range(out_side):
                window = img2d[r : r + 3, c : c + 3].astype(np.int32)
                out[r, c] = np.sum(window * ker.astype(np.int32))
        return out.astype(np.int16)

    x = img.reshape(dnn.IMG, dnn.IMG)
    x = conv(x, k1)                      # 10x10
    x = np.maximum(x, 0).astype(np.int16)  # relu
    x = conv(x, k2)                      # 8x8
    flat = x.reshape(-1).astype(np.int32)
    scores = (fc_w.astype(np.int32) @ flat).astype(np.int32)
    return {"scores": scores, "class_out": int(np.argmax(scores))}


#: -300 to 600 in steps of 0.25, 3,000 uniform draws in +-1e4, and
#: edge values (signed zeros, the modulus, the int16 range)
GOLDEN_SWEEP = (
    list(np.arange(-300.0, 600.25, 0.25))
    + list(np.random.default_rng(0).uniform(-1e4, 1e4, 3000))
    + [-0.0, 96.999999, 97.0, -97.0, 1e4, -1e4, 32767.0, -32768.0]
)


class TestGoldenModels:
    def test_weather_golden_matches_per_pixel_reference(self):
        for lum in GOLDEN_SWEEP:
            want = _per_pixel_inference(float(lum))
            got = weather.golden_inference(float(lum))
            assert got["scores"].dtype == want["scores"].dtype, lum
            assert np.array_equal(got["scores"], want["scores"]), lum
            assert got["class_out"] == want["class_out"], lum

    def test_fir_golden_signal_is_one_read_only_array(self):
        golden = fir.golden_filtered_signal()
        assert fir.golden_filtered_signal() is golden
        assert not golden.flags.writeable
        with pytest.raises(ValueError):
            golden[0] = 1

    def test_fir_golden_signal_shape(self):
        golden = fir.golden_filtered_signal()
        assert golden.dtype == np.int16
        assert len(golden) == fir.SIGNAL_LEN
        # tail beyond N_OUT untouched
        assert np.array_equal(
            golden[fir.N_OUT :], fir.initial_signal()[fir.N_OUT :]
        )

    def test_fir_check_rejects_double_filtering(self):
        state = {
            "signal": np.roll(fir.golden_filtered_signal(), 1),
            "checksum": 0,
        }
        assert not fir.check_consistency(state)

    def test_weather_golden_is_deterministic(self):
        a = weather.golden_inference(128.0)
        b = weather.golden_inference(128.0)
        assert a["class_out"] == b["class_out"]
        assert np.array_equal(a["scores"], b["scores"])

    def test_weather_golden_tracks_luminance(self):
        scores = {
            lum: tuple(weather.golden_inference(lum)["scores"])
            for lum in (10.0, 90.0, 200.0)
        }
        assert len(set(scores.values())) > 1

    def test_weather_check_rejects_wrong_class(self):
        golden = weather.golden_inference(100.0)
        bad_class = (golden["class_out"] + 1) % dnn.CLASSES
        state = {
            "luminance": 100.0,
            "sent_count": 1,
            "class_out": bad_class,
            "scores": golden["scores"],
        }
        assert not weather.check_consistency(state)

    def test_weather_check_rejects_double_send(self):
        golden = weather.golden_inference(100.0)
        state = {
            "luminance": 100.0,
            "sent_count": 2,
            "class_out": golden["class_out"],
            "scores": golden["scores"],
        }
        assert not weather.check_consistency(state)


class TestBuildParameters:
    def test_fir_exclude_variant(self):
        program = fir.build(exclude_coeffs=True)
        task = program.task("t_filter")
        dmas = [s for s in task.walk() if isinstance(s, A.DMACopy)]
        assert any(d.exclude for d in dmas)

    def test_weather_buffer_modes(self):
        single = weather.build(buffers="single")
        double = weather.build(buffers="double")
        assert not single.has_decl("act_b")
        assert double.has_decl("act_b")

    def test_weather_rejects_bad_buffer_mode(self):
        with pytest.raises(ValueError):
            weather.build(buffers="triple")

    def test_uni_dma_rounds(self):
        r1 = run_program(
            uni_dma.build(rounds=1), runtime="alpaca", failure_model=NoFailures()
        )
        r3 = run_program(
            uni_dma.build(rounds=3), runtime="alpaca", failure_model=NoFailures()
        )
        assert (
            r3.metrics.active_time_us > 2.5 * r1.metrics.active_time_us
        )

    def test_uni_temp_sample_count(self):
        program = uni_temp.build(samples=4)
        loop = next(
            s for s in program.task("t_sense").walk() if isinstance(s, A.Loop)
        )
        assert loop.count == 4
