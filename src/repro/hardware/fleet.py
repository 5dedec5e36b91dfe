"""Batched device kernels: one struct-of-arrays fleet of identical devices.

:class:`DeviceFleet` advances N independent copies of one
:class:`~repro.hardware.device.EdgeDevice` in lock-step, replacing N Python
object graphs (thermal dicts, throttler objects, per-call dataclasses) with
a handful of NumPy arrays and vectorized kernels:

* RC thermal integration with per-session sub-stepping (sessions whose
  segment already finished take zero-length sub-steps, so one array loop
  integrates segments of different durations),
* the dynamic + leakage power model,
* trip-point throttling with hysteresis, and
* requested-level bookkeeping with throttle caps re-applied after every
  segment.

Every kernel performs the *same floating-point operations in the same
order* as the scalar classes, so a fleet session is bit-for-bit identical
to the equivalent scalar :class:`EdgeDevice` run — the only deliberate
subtlety is leakage power, where ``math.exp`` is evaluated per session
(NumPy's vectorized ``exp`` differs from libm by an ULP on ~4 % of inputs,
which would break seed-for-seed trace equivalence).

When the fused kernels are available (:func:`repro.rl.fused.fused_fleet`)
a whole :meth:`DeviceFleet.execute` step — power, RC sub-stepping,
throttling, caps and energy — is one C call whose pointers are bound when
the fleet is built.  The fleet's state arrays are therefore persistent:
every update writes into them in place, never rebinds them.  The NumPy
path below stays as the ``REPRO_FUSED=0`` path and as the oracle the
kernel's load-time self-test is checked against.

All sessions share one device *description*; heterogeneous-hardware fleets
run one ``DeviceFleet`` per device group (the grouped sub-fleet path built
by :func:`repro.runtime.fleet.run_fleet_scenario`), with per-session
initial-ambient arrays so sessions inside a group may still start in
different environments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import DeviceError
from repro.hardware.device import CPU_NODE, GPU_NODE, EdgeDevice
from repro.rl.fused import FleetDevicePlan, FleetDomainPlan, fused_fleet
from repro.hardware.frequency import FrequencyTable
from repro.hardware.power import PowerModel
from repro.hardware.throttle import ThrottleConfig


def _exact_exp(exponents: np.ndarray) -> np.ndarray:
    """Elementwise ``math.exp``, matching the scalar power model bit-for-bit."""
    return np.array([math.exp(value) for value in exponents.tolist()], dtype=float)


@dataclass(frozen=True)
class FleetTelemetry:
    """Per-session telemetry arrays returned after each executed segment.

    The array counterpart of
    :class:`~repro.hardware.device.DeviceTelemetry`: every attribute is a
    length-N array indexed by session.
    """

    cpu_temperature_c: np.ndarray
    gpu_temperature_c: np.ndarray
    cpu_level: np.ndarray
    gpu_level: np.ndarray
    cpu_power_w: np.ndarray
    gpu_power_w: np.ndarray
    energy_j: np.ndarray
    cpu_throttled: np.ndarray
    gpu_throttled: np.ndarray
    duration_ms: np.ndarray

    @property
    def any_throttled(self) -> np.ndarray:
        """Boolean array: whether either processor throttled, per session."""
        return self.cpu_throttled | self.gpu_throttled


class _DomainTables:
    """Frequency/voltage lookup tables and power constants for one domain."""

    def __init__(self, table: FrequencyTable, power: PowerModel):
        self.num_levels = table.num_levels
        self.max_level = table.max_level
        self.frequency_khz = np.array(table.frequencies_khz, dtype=float)
        # Squared voltages are tabulated with Python's scalar ``**`` so the
        # kernel never has to trust array ``**`` to round identically.
        self.voltage_sq_mv = np.array(
            [point.voltage_mv**2 for point in table], dtype=float
        )
        self.idle_power_w = power.idle_power_w
        self.leakage_power_w = power.leakage_power_w
        self.leakage_temp_coefficient = power.leakage_temp_coefficient
        self.leakage_reference_temp_c = power.leakage_reference_temp_c
        self.effective_capacitance = power.effective_capacitance

    def power_w(
        self, levels: np.ndarray, utilisation: np.ndarray, temperature_c: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`PowerModel.total_power_w` over the fleet."""
        utilisation = np.minimum(np.maximum(utilisation, 0.0), 1.0)
        dynamic = (
            self.effective_capacitance
            * self.voltage_sq_mv[levels]
            * self.frequency_khz[levels]
            * utilisation
        )
        exponent = np.minimum(
            self.leakage_temp_coefficient
            * (temperature_c - self.leakage_reference_temp_c),
            4.0,
        )
        leakage = self.leakage_power_w * _exact_exp(exponent)
        return self.idle_power_w + dynamic + leakage


class _ThrottlerArrays:
    """Vectorized trip-point throttler with hysteresis for one domain."""

    def __init__(self, config: ThrottleConfig, num_sessions: int):
        self.trip_temperature_c = config.trip_temperature_c
        self.release_temperature_c = config.trip_temperature_c - config.hysteresis_c
        self.throttled_level = config.throttled_level
        self.throttled = np.zeros(num_sessions, dtype=bool)
        self.engage_count = np.zeros(num_sessions, dtype=np.int64)

    def reset(self) -> None:
        self.throttled[:] = False
        self.engage_count[:] = 0

    def update(self, temperature_c: np.ndarray) -> np.ndarray:
        """Advance the hysteresis state machine; returns the throttled mask."""
        released = self.throttled & (temperature_c <= self.release_temperature_c)
        engaged = ~self.throttled & (temperature_c >= self.trip_temperature_c)
        self.throttled[...] = (self.throttled & ~released) | engaged
        self.engage_count += engaged
        return self.throttled.copy()

    def cap_levels(self, requested: np.ndarray, out: np.ndarray) -> None:
        """Write the capped ``requested`` levels into ``out``."""
        out[...] = requested
        np.minimum(out, self.throttled_level, out=out, where=self.throttled)


class DeviceFleet:
    """N lock-step instances of one edge device as struct-of-arrays state.

    Args:
        template: The device description all sessions share.  The template
            object itself is never mutated.
        num_sessions: Fleet size N.
        ambient_temperature_c: Initial ambient temperature — a scalar shared
            by the whole fleet, or a length-N array giving every session its
            own initial ambient (heterogeneous ambient schedules start each
            session in its own environment).  Defaults to the template's
            current ambient.
    """

    def __init__(
        self,
        template: EdgeDevice,
        num_sessions: int,
        ambient_temperature_c: float | np.ndarray | None = None,
    ):
        if num_sessions <= 0:
            raise DeviceError("a fleet needs at least one session")
        self.name = template.name
        self.num_sessions = num_sessions
        self.template = template
        self.cpu = _DomainTables(template.cpu.frequency_table, template.cpu.power_model)
        self.gpu = _DomainTables(template.gpu.frequency_table, template.gpu.power_model)

        thermal = template.thermal
        self._node_names: Tuple[str, ...] = thermal.node_names
        self._node_index = {name: i for i, name in enumerate(self._node_names)}
        self._cpu_node = self._node_index[CPU_NODE]
        self._gpu_node = self._node_index[GPU_NODE]
        self._heat_capacity = np.array(
            [node.heat_capacity_j_per_c for node in thermal.nodes], dtype=float
        )
        self._resistance = np.array(
            [node.resistance_to_ambient_c_per_w for node in thermal.nodes], dtype=float
        )
        self._initial_temperature = [
            node.initial_temperature_c for node in thermal.nodes
        ]
        # Normalized couplings in the same iteration order as the scalar
        # network's dict, so per-node accumulation sums in the same order.
        self._couplings = [
            (self._node_index[a], self._node_index[b], conductance)
            for (a, b), conductance in thermal.couplings.items()
        ]
        self.max_substep_s = thermal.max_substep_s

        self._cpu_throttler = _ThrottlerArrays(template.cpu_throttle, num_sessions)
        self._gpu_throttler = _ThrottlerArrays(template.gpu_throttle, num_sessions)
        self.cpu_throttle = template.cpu_throttle
        self.gpu_throttle = template.gpu_throttle

        # Persistent state: updated in place only, because the fused step
        # holds the addresses of these arrays.
        self.ambient_temperature_c = np.empty(num_sessions)
        self.set_ambient(
            ambient_temperature_c
            if ambient_temperature_c is not None
            else thermal.ambient_temperature_c
        )
        self._temperatures = np.zeros((len(self._node_names), num_sessions))
        self._requested_cpu_level = np.zeros(num_sessions, dtype=np.int64)
        self._requested_gpu_level = np.zeros(num_sessions, dtype=np.int64)
        self.cpu_level = np.zeros(num_sessions, dtype=np.int64)
        self.gpu_level = np.zeros(num_sessions, dtype=np.int64)
        self.total_energy_j = np.zeros(num_sessions)
        self.elapsed_ms = np.zeros(num_sessions)
        self.reset()
        self._step = None
        kernel = fused_fleet()
        if kernel is not None:
            self._bind_kernel(kernel)

    def _bind_kernel(self, kernel) -> None:
        """Bind the fused device step to this fleet's arrays.

        Besides the persistent state, the step reads three input buffers
        (duration, utilisations) and writes three outputs (powers, energy)
        that :meth:`execute` fills and copies out; the coupling tables and
        sub-stepping scratch are allocated here and kept alive with them.
        """
        n = self.num_sessions
        self._duration = np.zeros(n)
        self._cpu_utilisation = np.zeros(n)
        self._gpu_utilisation = np.zeros(n)
        self._cpu_power = np.zeros(n)
        self._gpu_power = np.zeros(n)
        self._energy = np.zeros(n)
        coup_a = np.array([a for a, _, _ in self._couplings], dtype=np.int64)
        coup_b = np.array([b for _, b, _ in self._couplings], dtype=np.int64)
        coup_c = np.array([c for _, _, c in self._couplings], dtype=float)
        remaining, dt, deltas = np.zeros(n), np.zeros(n), np.zeros_like(self._temperatures)
        self._kernel_buffers = (coup_a, coup_b, coup_c, remaining, dt, deltas)

        def address(array: np.ndarray) -> int:
            return array.ctypes.data

        def domain(tables, throttler, node, utilisation, requested, level, power):
            return FleetDomainPlan(
                frequency_khz=address(tables.frequency_khz),
                voltage_sq_mv=address(tables.voltage_sq_mv),
                idle_power=tables.idle_power_w,
                leakage_power=tables.leakage_power_w,
                leak_coef=tables.leakage_temp_coefficient,
                leak_ref=tables.leakage_reference_temp_c,
                eff_cap=tables.effective_capacitance,
                trip=throttler.trip_temperature_c,
                release=throttler.release_temperature_c,
                throttled_level=throttler.throttled_level,
                node=node,
                utilisation=address(utilisation),
                requested=address(requested),
                level=address(level),
                throttled=address(throttler.throttled),
                engage_count=address(throttler.engage_count),
                power=address(power),
            )

        plan = FleetDevicePlan(
            nodes=len(self._node_names),
            n=n,
            ncoup=coup_c.size,
            max_substep=self.max_substep_s,
            resistance=address(self._resistance),
            heat_capacity=address(self._heat_capacity),
            ca=address(coup_a),
            cb=address(coup_b),
            cc=address(coup_c),
            temps=address(self._temperatures),
            ambient=address(self.ambient_temperature_c),
            duration=address(self._duration),
            remaining=address(remaining),
            dt=address(dt),
            deltas=address(deltas),
            energy=address(self._energy),
            total_energy=address(self.total_energy_j),
            elapsed=address(self.elapsed_ms),
            cpu=domain(
                self.cpu, self._cpu_throttler, self._cpu_node, self._cpu_utilisation,
                self._requested_cpu_level, self.cpu_level, self._cpu_power,
            ),
            gpu=domain(
                self.gpu, self._gpu_throttler, self._gpu_node, self._gpu_utilisation,
                self._requested_gpu_level, self.gpu_level, self._gpu_power,
            ),
        )
        self._step = kernel.bind_device_step(plan)

    def __getstate__(self) -> dict:
        # The bound step addresses this object's arrays: a copy or an
        # unpickled fleet binds its own.
        state = dict(self.__dict__)
        state["_step"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        kernel = fused_fleet()
        if kernel is not None:
            self._bind_kernel(kernel)

    # -- lifecycle ----------------------------------------------------------------

    def reset(self, ambient_temperature_c: float | np.ndarray | None = None) -> None:
        """Return every session to a cold, un-throttled, max-frequency state."""
        if ambient_temperature_c is not None:
            self.set_ambient(ambient_temperature_c)
        for row, initial in enumerate(self._initial_temperature):
            self._temperatures[row] = (
                initial if initial is not None else self.ambient_temperature_c
            )
        self._cpu_throttler.reset()
        self._gpu_throttler.reset()
        self._requested_cpu_level[:] = self.cpu.max_level
        self._requested_gpu_level[:] = self.gpu.max_level
        self.cpu_level[:] = self.cpu.max_level
        self.gpu_level[:] = self.gpu.max_level
        self.total_energy_j[:] = 0.0
        self.elapsed_ms[:] = 0.0

    # -- observation ---------------------------------------------------------------

    @property
    def cpu_temperature_c(self) -> np.ndarray:
        """Per-session CPU die temperatures (a live view)."""
        return self._temperatures[self._cpu_node]

    @property
    def gpu_temperature_c(self) -> np.ndarray:
        """Per-session GPU die temperatures (a live view)."""
        return self._temperatures[self._gpu_node]

    @property
    def cpu_frequency_khz(self) -> np.ndarray:
        """Effective per-session CPU frequencies."""
        return self.cpu.frequency_khz[self.cpu_level]

    @property
    def gpu_frequency_khz(self) -> np.ndarray:
        """Effective per-session GPU frequencies."""
        return self.gpu.frequency_khz[self.gpu_level]

    @property
    def cpu_throttled(self) -> np.ndarray:
        """Boolean mask of sessions whose CPU cap is engaged."""
        return self._cpu_throttler.throttled

    @property
    def gpu_throttled(self) -> np.ndarray:
        """Boolean mask of sessions whose GPU cap is engaged."""
        return self._gpu_throttler.throttled

    @property
    def throttle_engage_count(self) -> np.ndarray:
        """Per-session total throttle events on either processor."""
        return self._cpu_throttler.engage_count + self._gpu_throttler.engage_count

    def set_ambient(self, ambient_temperature_c: float | np.ndarray) -> None:
        """Change the ambient temperature (scalar broadcasts to the fleet)."""
        self.ambient_temperature_c[...] = np.broadcast_to(
            np.asarray(ambient_temperature_c, dtype=float), (self.num_sessions,)
        )

    # -- checkpointing --------------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete snapshot of the fleet's mutable physical state.

        Captures everything :meth:`execute` reads or mutates — node
        temperatures, throttler hysteresis and engage counts, requested
        and effective levels, energy and elapsed time — so that
        save → load → continue is bit-identical to an uninterrupted run
        at any frame boundary.  Configuration (device model, tables,
        coupling) is not captured; the restoring fleet must be built from
        the same device template with the same session count.
        """
        return {
            "num_sessions": int(self.num_sessions),
            "ambient_temperature_c": self.ambient_temperature_c.copy(),
            "temperatures": self._temperatures.copy(),
            "cpu_throttled": self._cpu_throttler.throttled.copy(),
            "cpu_engage_count": self._cpu_throttler.engage_count.copy(),
            "gpu_throttled": self._gpu_throttler.throttled.copy(),
            "gpu_engage_count": self._gpu_throttler.engage_count.copy(),
            "requested_cpu_level": self._requested_cpu_level.copy(),
            "requested_gpu_level": self._requested_gpu_level.copy(),
            "cpu_level": self.cpu_level.copy(),
            "gpu_level": self.gpu_level.copy(),
            "total_energy_j": self.total_energy_j.copy(),
            "elapsed_ms": self.elapsed_ms.copy(),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this fleet in place."""
        if int(payload["num_sessions"]) != self.num_sessions:
            raise DeviceError(
                f"snapshot was captured from a {payload['num_sessions']}-session "
                f"fleet but this fleet drives {self.num_sessions} sessions"
            )
        self.ambient_temperature_c[:] = payload["ambient_temperature_c"]
        self._temperatures[:] = payload["temperatures"]
        self._cpu_throttler.throttled[:] = payload["cpu_throttled"]
        self._cpu_throttler.engage_count[:] = payload["cpu_engage_count"]
        self._gpu_throttler.throttled[:] = payload["gpu_throttled"]
        self._gpu_throttler.engage_count[:] = payload["gpu_engage_count"]
        self._requested_cpu_level[:] = payload["requested_cpu_level"]
        self._requested_gpu_level[:] = payload["requested_gpu_level"]
        self.cpu_level[:] = payload["cpu_level"]
        self.gpu_level[:] = payload["gpu_level"]
        self.total_energy_j[:] = payload["total_energy_j"]
        self.elapsed_ms[:] = payload["elapsed_ms"]

    # -- control --------------------------------------------------------------------

    def request_levels(
        self,
        cpu_levels: int | np.ndarray,
        gpu_levels: int | np.ndarray,
        mask: np.ndarray | None = None,
    ) -> None:
        """Request frequency levels; ``mask`` limits which sessions change."""
        n = self.num_sessions
        cpu_levels = np.asarray(cpu_levels, dtype=np.int64)
        gpu_levels = np.asarray(gpu_levels, dtype=np.int64)
        if cpu_levels.shape != (n,):
            cpu_levels = np.broadcast_to(cpu_levels, (n,))
        if gpu_levels.shape != (n,):
            gpu_levels = np.broadcast_to(gpu_levels, (n,))
        if mask is None:
            check_cpu, check_gpu = cpu_levels, gpu_levels
        else:
            check_cpu, check_gpu = cpu_levels[mask], gpu_levels[mask]
        # One reduction per domain: viewed unsigned, a negative level is
        # larger than any level count.
        if check_cpu.size and check_cpu.view(np.uint64).max() >= self.cpu.num_levels:
            raise DeviceError(
                f"cpu level out of range [0, {self.cpu.num_levels - 1}]"
            )
        if check_gpu.size and check_gpu.view(np.uint64).max() >= self.gpu.num_levels:
            raise DeviceError(
                f"gpu level out of range [0, {self.gpu.num_levels - 1}]"
            )
        if mask is None:
            self._requested_cpu_level[...] = cpu_levels
            self._requested_gpu_level[...] = gpu_levels
        else:
            np.copyto(self._requested_cpu_level, cpu_levels, where=mask)
            np.copyto(self._requested_gpu_level, gpu_levels, where=mask)
        self._apply_caps()

    def _apply_caps(self) -> None:
        self._cpu_throttler.cap_levels(self._requested_cpu_level, self.cpu_level)
        self._gpu_throttler.cap_levels(self._requested_gpu_level, self.gpu_level)

    # -- execution --------------------------------------------------------------------

    def advance_thermal(
        self, duration_ms: np.ndarray, cpu_power_w: np.ndarray, gpu_power_w: np.ndarray
    ) -> None:
        """Advance the RC network with per-session durations and powers.

        The scalar network splits a segment into ``min(max_substep_s,
        remaining)`` sub-steps; here each session keeps its own remaining
        time, and sessions that finish early take zero-length sub-steps
        (``T += 0.0``) until the longest-running session completes — the
        sequence of non-zero sub-steps per session is exactly the scalar
        sequence.
        """
        if np.any(duration_ms < 0):
            raise DeviceError("durations must be non-negative")
        power = np.zeros_like(self._temperatures)
        power[self._cpu_node] = cpu_power_w
        power[self._gpu_node] = gpu_power_w
        remaining = duration_ms / 1e3
        temps = self._temperatures
        while True:
            active = remaining > 1e-12
            if not active.any():
                break
            dt = np.where(active, np.minimum(self.max_substep_s, remaining), 0.0)
            deltas = np.empty_like(temps)
            for row in range(temps.shape[0]):
                to_ambient = (
                    temps[row] - self.ambient_temperature_c
                ) / self._resistance[row]
                coupled = np.zeros(self.num_sessions)
                for node_a, node_b, conductance in self._couplings:
                    if row == node_a:
                        coupled = coupled + conductance * (temps[row] - temps[node_b])
                    elif row == node_b:
                        coupled = coupled + conductance * (temps[row] - temps[node_a])
                net_flow_w = power[row] - to_ambient - coupled
                deltas[row] = net_flow_w / self._heat_capacity[row] * dt
            temps += deltas
            remaining = remaining - dt

    def execute(
        self,
        duration_ms: np.ndarray,
        cpu_utilisation: float | np.ndarray,
        gpu_utilisation: float | np.ndarray,
    ) -> FleetTelemetry:
        """Run every session for its own ``duration_ms`` at current levels.

        The vectorized counterpart of :meth:`EdgeDevice.execute`: powers are
        computed at pre-segment temperatures, the thermal network advances,
        throttlers re-evaluate and the (possibly capped) levels are
        re-applied — in one fused call when the kernel is bound.
        """
        step = self._step
        if step is not None:
            duration = self._duration
            duration[...] = duration_ms
            if np.any(duration < 0):
                raise DeviceError("durations must be non-negative")
            self._cpu_utilisation[...] = cpu_utilisation
            self._gpu_utilisation[...] = gpu_utilisation
            step()
            return FleetTelemetry(
                cpu_temperature_c=self.cpu_temperature_c.copy(),
                gpu_temperature_c=self.gpu_temperature_c.copy(),
                cpu_level=self.cpu_level.copy(),
                gpu_level=self.gpu_level.copy(),
                cpu_power_w=self._cpu_power.copy(),
                gpu_power_w=self._gpu_power.copy(),
                energy_j=self._energy.copy(),
                cpu_throttled=self._cpu_throttler.throttled.copy(),
                gpu_throttled=self._gpu_throttler.throttled.copy(),
                duration_ms=duration.copy(),
            )
        duration_ms = np.broadcast_to(
            np.asarray(duration_ms, dtype=float), (self.num_sessions,)
        )
        if np.any(duration_ms < 0):
            raise DeviceError("durations must be non-negative")
        cpu_utilisation = np.broadcast_to(
            np.asarray(cpu_utilisation, dtype=float), (self.num_sessions,)
        )
        gpu_utilisation = np.broadcast_to(
            np.asarray(gpu_utilisation, dtype=float), (self.num_sessions,)
        )
        cpu_power = self.cpu.power_w(
            self.cpu_level, cpu_utilisation, self.cpu_temperature_c
        )
        gpu_power = self.gpu.power_w(
            self.gpu_level, gpu_utilisation, self.gpu_temperature_c
        )
        self.advance_thermal(duration_ms, cpu_power, gpu_power)

        cpu_throttled = self._cpu_throttler.update(self.cpu_temperature_c)
        gpu_throttled = self._gpu_throttler.update(self.gpu_temperature_c)
        self._apply_caps()

        energy = (cpu_power + gpu_power) * (duration_ms / 1e3)
        self.total_energy_j += energy
        self.elapsed_ms += duration_ms
        return FleetTelemetry(
            cpu_temperature_c=self.cpu_temperature_c.copy(),
            gpu_temperature_c=self.gpu_temperature_c.copy(),
            cpu_level=self.cpu_level.copy(),
            gpu_level=self.gpu_level.copy(),
            cpu_power_w=cpu_power,
            gpu_power_w=gpu_power,
            energy_j=energy,
            cpu_throttled=cpu_throttled,
            gpu_throttled=gpu_throttled,
            duration_ms=duration_ms.copy(),
        )

    def idle(self, duration_ms: np.ndarray) -> FleetTelemetry:
        """Let the fleet sit near-idle, mirroring :meth:`EdgeDevice.idle`."""
        return self.execute(duration_ms, cpu_utilisation=0.02, gpu_utilisation=0.0)

    # -- misc -------------------------------------------------------------------------

    def session_temperatures(self, session: int) -> dict:
        """Node temperatures of one session keyed by node name (debugging)."""
        return {
            name: float(self._temperatures[row, session])
            for name, row in self._node_index.items()
        }


def fleet_from_sessions(devices: Sequence[EdgeDevice]) -> DeviceFleet:
    """Build a fleet from N identically configured scalar devices.

    Convenience for tests: the first device acts as the template; all
    devices must share its name (the registry guarantees identical
    configuration for equal names).
    """
    if not devices:
        raise DeviceError("need at least one device")
    names = {device.name for device in devices}
    if len(names) != 1:
        raise DeviceError(f"fleet sessions must share one device model, got {names}")
    return DeviceFleet(devices[0], len(devices))
