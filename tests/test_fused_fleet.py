"""Bitwise agreement tests for the fused fleet kernels.

Every fleet kernel in :mod:`repro.rl.fused` (the whole device step with
its RC thermal sub-stepping, fused bias-add + ReLU) must produce output
**bit-identical** to the NumPy path it replaces — that is the whole
contract that lets ``REPRO_FUSED=0`` remain a pure kill switch rather
than a different numerical mode.  These tests re-state each kernel's
NumPy reference inline (or run the NumPy ``DeviceFleet.execute`` as the
oracle) and compare through int64 bit patterns over randomized shapes and
fill levels.  The AR(1) stream step and the proposal rint/clip tail stay
in NumPy (a ctypes call costs more than the expression at fleet-group
sizes); the same references pin those expressions, clip edges and
half-to-even rounding included.

When the toolchain is unavailable (``fused_fleet()`` returns ``None``)
the kernel-vs-reference tests skip; the kill-switch test always runs,
in a subprocess so it sees a fresh resolution cache.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys

from dataclasses import replace

import numpy as np
import pytest

from repro.detection.fleet import propose_batch
from repro.detection.proposals import ProposalModel
from repro.detection.registry import build_detector
from repro.errors import DeviceError
from repro.hardware.devices import available_devices, build_device, jetson_orin_nano
from repro.hardware.fleet import DeviceFleet
from repro.hardware.thermal import ThermalNetwork, ThermalNodeConfig
from repro.obs import bus
from repro.rl.fused import fused_adam, fused_fleet
from repro.workload.dataset import DatasetProfile
from repro.workload.fleet import FleetFrameStream, SessionNormals

kernel = fused_fleet()

needs_kernel = pytest.mark.skipif(
    kernel is None, reason="fused kernels unavailable on this host"
)


# ---------------------------------------------------------------------------
# NumPy references (mirror the REPRO_FUSED=0 fallback paths exactly)
# ---------------------------------------------------------------------------


def reference_thermal_advance(
    temps, power, ambient, resistance, heat_capacity, couplings,
    remaining, max_substep,
):
    """The NumPy sub-stepping loop of ``DeviceFleet.advance_thermal``."""
    temps = temps.copy()
    remaining = remaining.copy()
    nodes = temps.shape[0]
    while True:
        dt = np.minimum(remaining, max_substep)
        dt[remaining <= 1e-12] = 0.0
        if not np.any(dt > 0.0):
            break
        deltas = np.empty_like(temps)
        for row in range(nodes):
            coupled = np.zeros(temps.shape[1])
            for a, b, c in couplings:
                if a == row:
                    coupled = coupled + c * (temps[row] - temps[b])
                elif b == row:
                    coupled = coupled + c * (temps[row] - temps[a])
            leak = (temps[row] - ambient) / resistance[row]
            deltas[row] = (power[row] - leak - coupled) / heat_capacity[row] * dt
        temps += deltas
        remaining = remaining - dt
    return temps


def reference_ar1_advance(current, mean, corr, innovations, minimum, maximum):
    """The NumPy value/clip expression of ``WorkloadStreams.next_frames``."""
    value = mean + corr * (current - mean) + innovations
    return np.clip(value, minimum, maximum)


def reference_proposal_tail(
    scene, keep_ratio, factor, min_proposals, max_proposals
):
    """The NumPy rint/clip tail of ``propose_batch``."""
    expected = scene * keep_ratio
    if factor is not None:
        expected = expected * factor
    return np.clip(
        np.rint(expected), min_proposals, max_proposals
    ).astype(np.int64)


def reference_bias_relu(z, b):
    """``z += b`` then ``maximum(z, 0.0)``."""
    z = z + b
    return z, np.maximum(z, 0.0)


def assert_bitwise_equal(a, b, label):
    __tracebackhide__ = True
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype.kind == "f":
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), label
    else:
        assert np.array_equal(a, b), label


# ---------------------------------------------------------------------------
# Kernel vs reference
# ---------------------------------------------------------------------------


def random_network_device(rng: np.random.Generator):
    """A Jetson whose thermal network has 2–4 nodes in random order, random
    R/C constants and a random subset of couplings."""
    names = ["cpu", "gpu", "board", "skin"][: int(rng.integers(2, 5))]
    rng.shuffle(names)
    nodes = tuple(
        ThermalNodeConfig(
            name=name,
            heat_capacity_j_per_c=float(rng.uniform(2.0, 20.0)),
            resistance_to_ambient_c_per_w=float(rng.uniform(1.0, 6.0)),
        )
        for name in names
    )
    couplings = {
        (a, b): float(rng.uniform(0.05, 1.0))
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if rng.random() < 0.6
    }
    return replace(
        jetson_orin_nano(),
        thermal=ThermalNetwork(nodes=nodes, couplings=couplings, max_substep_s=0.05),
    )


def randomise_fleet(fleet: DeviceFleet, rng: np.random.Generator, spread_c: float = 25.0):
    """Random temperatures around the CPU trip point, random ambients,
    throttles half engaged and random requested levels."""
    state = fleet.state_dict()
    n = fleet.num_sessions
    trip = fleet.cpu_throttle.trip_temperature_c
    state["temperatures"] = rng.uniform(trip - spread_c, trip + 5.0, state["temperatures"].shape)
    state["ambient_temperature_c"] = rng.uniform(15.0, 35.0, n)
    state["cpu_throttled"] = rng.random(n) < 0.5
    state["gpu_throttled"] = rng.random(n) < 0.5
    fleet.load_state_dict(state)
    fleet.request_levels(
        rng.integers(0, fleet.cpu.num_levels, n), rng.integers(0, fleet.gpu.num_levels, n)
    )


@needs_kernel
class TestFleetThermalAdvance:
    """The RC sub-stepping inside ``fleet_device_step`` vs. the NumPy loop."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_numpy_substepping_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        device = random_network_device(rng)
        n = int(rng.integers(1, 40))
        fleet = DeviceFleet(device, n)
        assert fleet._step is not None
        randomise_fleet(fleet, rng)
        index = {name: i for i, name in enumerate(device.thermal.node_names)}
        couplings = [
            (index[a], index[b], c) for (a, b), c in device.thermal.couplings.items()
        ]
        resistance = np.array([node.resistance_to_ambient_c_per_w for node in device.thermal.nodes])
        heat_capacity = np.array([node.heat_capacity_j_per_c for node in device.thermal.nodes])
        # Mixed durations: some sessions idle (zero), some mid-sub-step.
        duration_ms = rng.uniform(0.0, 330.0, n)
        duration_ms[rng.random(n) < 0.25] = 0.0
        temps = fleet._temperatures.copy()
        ambient = fleet.ambient_temperature_c.copy()

        telemetry = fleet.execute(duration_ms, rng.uniform(0, 1, n), rng.uniform(0, 1, n))
        power = np.zeros_like(temps)
        power[index["cpu"]] = telemetry.cpu_power_w
        power[index["gpu"]] = telemetry.gpu_power_w
        expected = reference_thermal_advance(
            temps, power, ambient, resistance, heat_capacity, couplings,
            duration_ms / 1e3, 0.05,
        )
        assert_bitwise_equal(
            fleet._temperatures, expected, f"thermal temps differ (seed {seed})"
        )

    def test_zero_duration_is_a_no_op(self):
        rng = np.random.default_rng(99)
        fleet = DeviceFleet(random_network_device(rng), 7)
        randomise_fleet(fleet, rng)
        before = fleet._temperatures.copy()
        energy = fleet.total_energy_j.copy()
        fleet.execute(np.zeros(7), rng.uniform(0, 1, 7), rng.uniform(0, 1, 7))
        assert_bitwise_equal(fleet._temperatures, before, "zero-duration step mutated temps")
        assert_bitwise_equal(fleet.total_energy_j, energy, "zero-duration step used energy")


@needs_kernel
class TestFleetDeviceStep:
    """``fleet_device_step`` vs. the NumPy ``DeviceFleet.execute``."""

    @staticmethod
    def pair(device_name: str, n: int):
        oracle = DeviceFleet(build_device(device_name), n)
        oracle._step = None
        return oracle, DeviceFleet(build_device(device_name), n)

    @staticmethod
    def assert_same(oracle: DeviceFleet, fused: DeviceFleet, expected, got, label):
        __tracebackhide__ = True
        for name, value in vars(expected).items():
            assert_bitwise_equal(np.asarray(getattr(got, name)), np.asarray(value), f"{label}: {name}")
        reference = oracle.state_dict()
        for key, value in fused.state_dict().items():
            assert_bitwise_equal(np.asarray(value), np.asarray(reference[key]), f"{label}: {key}")

    @pytest.mark.parametrize("device_name", sorted(available_devices()))
    def test_matches_numpy_execute_bitwise(self, device_name):
        rng = np.random.default_rng(404)
        n = 23
        oracle, fused = self.pair(device_name, n)
        assert fused._step is not None
        randomise_fleet(oracle, np.random.default_rng(5), spread_c=8.0)
        randomise_fleet(fused, np.random.default_rng(5), spread_c=8.0)
        engaged = released = 0
        for step in range(30):
            levels = (
                rng.integers(0, oracle.cpu.num_levels, n),
                rng.integers(0, oracle.gpu.num_levels, n),
            )
            mask = rng.random(n) < 0.7 if step % 3 else None
            for fleet in (oracle, fused):
                fleet.request_levels(*levels, mask=mask)
            duration = rng.uniform(0.0, 900.0 if step % 2 else 40.0, n)
            duration[rng.random(n) < 0.2] = 0.0
            cpu_util = rng.uniform(-0.1, 1.1, n)
            gpu_util = rng.uniform(-0.1, 1.1, n)
            # Cool down hard now and then so throttles release, and idle.
            cooling = step % 7 == 3
            ambient = rng.uniform(-20.0, 0.0, n) if cooling else rng.uniform(20.0, 45.0, n)
            for fleet in (oracle, fused):
                fleet.set_ambient(ambient)
            before = oracle.cpu_throttled | oracle.gpu_throttled
            if cooling:
                expected, got = oracle.idle(duration * 4), fused.idle(duration * 4)
            else:
                expected = oracle.execute(duration, cpu_util, gpu_util)
                got = fused.execute(duration, cpu_util, gpu_util)
            after = oracle.cpu_throttled | oracle.gpu_throttled
            engaged += int((~before & after).sum())
            released += int((before & ~after).sum())
            self.assert_same(oracle, fused, expected, got, f"{device_name} step {step}")
        assert engaged and released, "the steps must engage and release throttles"

    def test_scalar_and_bad_inputs(self):
        oracle, fused = self.pair("jetson-orin-nano", 3)
        expected = oracle.execute(np.array([0.0, 5.0, 120.0]), 0.5, 1.0)
        got = fused.execute(np.array([0.0, 5.0, 120.0]), 0.5, 1.0)
        self.assert_same(oracle, fused, expected, got, "broadcast utilisation")
        with pytest.raises(DeviceError):
            fused.execute(np.array([1.0, -1.0, 1.0]), 0.5, 0.5)
        with pytest.raises(ValueError):
            fused.execute(np.ones(4), 0.5, 0.5)

    def test_each_step_is_one_counted_kernel_call(self):
        fleet = DeviceFleet(build_device("jetson-orin-nano"), 2)
        bus.enable(fresh=True)
        try:
            for _ in range(3):
                fleet.execute(np.ones(2), 0.5, 0.5)
            fleet.idle(np.ones(2))
            counters = bus.registry().counters
        finally:
            bus.disable()
        assert counters[("fused.kernel_calls", (("kernel", "fleet_device_step"),))] == 4

    def test_copies_step_their_own_arrays(self):
        fleet = DeviceFleet(build_device("jetson-orin-nano"), 3)
        fleet.execute(np.full(3, 80.0), 0.9, 0.9)
        before = fleet.state_dict()
        for twin in (copy.deepcopy(fleet), pickle.loads(pickle.dumps(fleet))):
            assert twin._step is not None
            expected = vars(fleet.execute(np.full(3, 120.0), 0.7, 1.0))
            got = vars(twin.execute(np.full(3, 120.0), 0.7, 1.0))
            for key, value in expected.items():
                assert_bitwise_equal(np.asarray(got[key]), np.asarray(value), key)
            fleet.load_state_dict(before)

    def test_request_validation_and_in_place_state(self):
        fleet = DeviceFleet(build_device("mi11-lite"), 3)
        arrays = [fleet.cpu_level, fleet.gpu_level, fleet.ambient_temperature_c]
        top = fleet.cpu.num_levels - 1
        for levels in ([-1, 0, 0], [0, top + 1, 0], [np.iinfo(np.int64).min, 0, 0]):
            with pytest.raises(DeviceError):
                fleet.request_levels(np.array(levels), 0)
            with pytest.raises(DeviceError):
                fleet.request_levels(0, np.array(levels))
        # Masked-out entries are not validated and not applied.
        mask = np.array([False, True, True])
        fleet.request_levels(np.array([-1, top, 0]), 1, mask=mask)
        assert fleet.cpu_level.tolist() == [top, top, 0]
        assert fleet.gpu_level.tolist() == [fleet.gpu.max_level, 1, 1]
        fleet.set_ambient(12.5)
        fleet.load_state_dict(fleet.state_dict())
        fleet.reset(3.0)
        # The fused step holds these arrays' addresses: never rebound.
        live = (fleet.cpu_level, fleet.gpu_level, fleet.ambient_temperature_c)
        assert all(a is b for a, b in zip(arrays, live))


class TestFleetAr1Advance:
    """The AR(1) step of ``FleetFrameStream.next_frames`` vs. the reference,
    with current values outside the clip band on both sides."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_numpy_clip_bitwise(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 129))
        profiles = [
            DatasetProfile(
                name=f"d{i}",
                image_scale=1.0,
                complexity_mean=float(mean),
                complexity_std=float(rng.uniform(0.0, 20.0)),
                complexity_min=float(mean - rng.uniform(5.0, 19.0)),
                complexity_max=float(mean + rng.uniform(5.0, 30.0)),
                temporal_correlation=float(rng.uniform(0.0, 0.99)),
            )
            for i, mean in enumerate(rng.uniform(20.0, 60.0, n))
        ]
        stream = FleetFrameStream(profiles, [np.random.default_rng(seed * 1000 + i) for i in range(n)])
        state = stream.state_dict()
        # Seed some sessions outside the band so both clip edges engage.
        current = rng.uniform(-40.0, 140.0, n)
        state["current"] = current
        stream.load_state_dict(state)

        processes = [profile.scene_process() for profile in profiles]
        innovations = []
        for i, process in enumerate(processes):
            twin = np.random.default_rng(seed * 1000 + i)
            twin.normal(process.mean, process.stationary_std)
            innovations.append(twin.normal(0.0, process.innovation_std))
        expected = reference_ar1_advance(
            current,
            np.array([p.mean for p in processes]),
            np.array([p.correlation for p in processes]),
            np.array(innovations),
            np.array([p.minimum for p in processes]),
            np.array([p.maximum for p in processes]),
        )
        got = stream.next_frames().scene_candidates
        assert_bitwise_equal(got, expected, f"AR(1) values differ (seed {seed})")


class TestFleetProposalTail:
    """The rint/clip tail of ``propose_batch`` vs. the reference."""

    #: rint must round half to even, exactly like np.rint.
    HALFWAY = np.array([0.5, 1.5, 2.5, 3.5, 4.5])

    @staticmethod
    def detector(keep_ratio, min_p, max_p, noise_std):
        base = build_detector("faster_rcnn")
        return replace(
            base,
            proposal_model=ProposalModel(
                keep_ratio=keep_ratio,
                min_proposals=min_p,
                max_proposals=max_p,
                noise_std=noise_std,
            ),
        )

    @pytest.mark.parametrize("with_factor", (False, True))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_numpy_rint_clip_bitwise(self, seed, with_factor):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 200))
        scene = np.concatenate([rng.uniform(0.0, 400.0, n), self.HALFWAY / 0.7])
        noise_std = 0.1 if with_factor else 0.0
        detector = self.detector(0.7, 10, 300, noise_std)
        seeds = range(seed * 1000, seed * 1000 + scene.size)
        noise = SessionNormals([np.random.default_rng(s) for s in seeds], noise_std)
        factor = None
        if with_factor:
            draws = np.array([np.random.default_rng(s).normal(0.0, noise_std) for s in seeds])
            factor = np.exp(draws)

        expected = reference_proposal_tail(scene, 0.7, factor, 10.0, 300.0)
        got = propose_batch(detector, scene, noise)
        assert_bitwise_equal(got, expected, f"proposal counts differ (seed {seed})")

    def test_half_to_even_rounding(self):
        noise = SessionNormals([np.random.default_rng(i) for i in range(5)], 0.0)
        got = propose_batch(self.detector(1.0, 0, 100, 0.0), self.HALFWAY, noise)
        assert got.tolist() == [0, 2, 2, 4, 4]


@needs_kernel
class TestBiasRelu:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_numpy_bitwise(self, seed):
        rng = np.random.default_rng(300 + seed)
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 129))
        z = rng.normal(0.0, 1.0, (rows, cols))
        b = rng.normal(0.0, 1.0, cols)

        expected_z, expected_act = reference_bias_relu(z, b)
        got_z = z.copy()
        got_act = np.empty_like(z)
        kernel.bias_relu(got_z, b, got_act)
        assert_bitwise_equal(got_z, expected_z, "pre-activations differ")
        assert_bitwise_equal(got_act, expected_act, "activations differ")

    def test_aliased_output_matches(self):
        """``_predict_2d`` calls the kernel with act aliased onto z."""
        rng = np.random.default_rng(7)
        z = rng.normal(0.0, 1.0, (9, 33))
        b = rng.normal(0.0, 1.0, 33)
        _, expected_act = reference_bias_relu(z, b)
        kernel.bias_relu(z, b, z)
        assert_bitwise_equal(z, expected_act, "aliased activations differ")

    def test_negative_zero_bias_tie(self):
        """maximum(-0.0, 0.0) keeps NumPy's in1-wins tie rule bitwise."""
        z = np.array([[-1.0, 1.0, -0.0]])
        b = np.array([1.0, -1.0, 0.0])
        expected_z, expected_act = reference_bias_relu(z, b)
        act = np.empty_like(z)
        kernel.bias_relu(z, b, act)
        assert_bitwise_equal(z, expected_z, "ties: pre-activations differ")
        assert_bitwise_equal(act, expected_act, "ties: activations differ")


# ---------------------------------------------------------------------------
# Kill switch
# ---------------------------------------------------------------------------


class TestKillSwitch:
    def test_repro_fused_zero_disables_every_kernel(self):
        """REPRO_FUSED=0 must turn off Adam and fleet kernels alike."""
        code = (
            "from repro.rl.fused import fused_adam, fused_fleet\n"
            "assert fused_adam() is None\n"
            "assert fused_fleet() is None\n"
        )
        env = dict(os.environ, REPRO_FUSED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )

    def test_fused_fleet_shares_resolution_with_fused_adam(self):
        """Both accessors return the same cached object (or both None)."""
        assert fused_fleet() is fused_adam()
