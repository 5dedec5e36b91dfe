"""Optional C fused kernels for the optimizer and fleet hot loops (self-verified).

The Adam update is elementwise over five same-sized buffers; in NumPy it
takes ~14 whole-array passes (each a separate ufunc call reading and
writing memory).  A single C loop does the same arithmetic in one pass.
This module compiles that loop with gcc at first use — strictly IEEE
(``-ffp-contract=off``, no fast-math), with every floating-point operation
written in the exact operand pairing and order of the NumPy sequence in
:meth:`repro.rl.optimizer.Adam.step_flat` — and loads it via ctypes.

The learner's stacked update (:class:`~repro.rl.dqn.DqnLearner`) uses the
same library for every elementwise tail of a train step over all rows of
a learner stack at once: the Adam step with per-row learning rates and
bias corrections, bias-add + ReLU, the double-DQN pair-target tail, the
Huber gather/scatter and the ReLU backward mask.

The same library also carries the batched *fleet* kernels (see
:func:`fused_fleet`): the whole device step of
:meth:`~repro.hardware.fleet.DeviceFleet.execute` (power, RC thermal
sub-stepping, throttling, caps and energy in one call whose pointers are
bound once per fleet) and the bias-add + ReLU of the stacked Q forward
(:class:`~repro.rl.slimmable.SlimmableMLP`).  Random draws stay in NumPy,
and so does every vectorized ``exp`` — NumPy's SIMD routines need not
match libm bit for bit; the device step's leakage ``exp`` is libm's, the
function the scalar model's ``math.exp`` calls.

Safety model: the kernel is used only if (a) a C compiler is available,
(b) compilation succeeds, and (c) a load-time self-test reproduces the
NumPy reference **bit for bit** on random data.  Any failure silently
falls back to the pure-NumPy path, which is always present and produces
identical results.  Set ``REPRO_FUSED=0`` to force the fallback.

The compiled library is cached in a per-user, owner-only directory
(``$XDG_CACHE_HOME/repro-fused`` or ``~/.cache/repro-fused``), keyed by a
hash of the C source and flags, so each machine compiles once.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
from pathlib import Path
from typing import Callable

import numpy as np

from repro.obs import bus as _obs

_SOURCE = r"""
#include <math.h>

/* One fused Adam step over contiguous buffers.

   Per element, the operation pairings mirror the NumPy sequence exactly:
     m = (m * beta1) + (omb1 * g)
     v = (v * beta2) + (omb2 * (g * g))
     p -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
   Compiled with -ffp-contract=off so no multiply-add contraction changes
   the rounding. */
void adam_step_flat(long n, double *p, const double *g, double *m, double *v,
                    double lr, double beta1, double beta2, double eps,
                    double bc1, double bc2) {
    double omb1 = 1.0 - beta1;
    double omb2 = 1.0 - beta2;
    for (long i = 0; i < n; i++) {
        double gi = g[i];
        double mi = (m[i] * beta1) + (omb1 * gi);
        double vi = (v[i] * beta2) + (omb2 * (gi * gi));
        m[i] = mi;
        v[i] = vi;
        p[i] -= (lr * (mi / bc1)) / (sqrt(vi / bc2) + eps);
    }
}

/* The same update over the active rectangle of a row-strided parameter:
   p/m/v address (rows x cols) blocks with a row stride (in elements),
   g is contiguous (rows x cols). */
void adam_step_region(long rows, long cols, long stride,
                      double *p, const double *g, double *m, double *v,
                      double lr, double beta1, double beta2, double eps,
                      double bc1, double bc2) {
    double omb1 = 1.0 - beta1;
    double omb2 = 1.0 - beta2;
    for (long r = 0; r < rows; r++) {
        double *pr = p + r * stride;
        double *mr = m + r * stride;
        double *vr = v + r * stride;
        const double *gr = g + r * cols;
        for (long c = 0; c < cols; c++) {
            double gi = gr[c];
            double mi = (mr[c] * beta1) + (omb1 * gi);
            double vi = (vr[c] * beta2) + (omb2 * (gi * gi));
            mr[c] = mi;
            vr[c] = vi;
            pr[c] -= (lr * (mi / bc1)) / (sqrt(vi / bc2) + eps);
        }
    }
}

/* grad *= (pre > 0): the ReLU backward mask, as an exact multiply by
   1.0/0.0 (matching NumPy's float-by-bool multiply, including the sign of
   zero on masked-out negative entries). */
void relu_mask(long n, double *grad, const double *pre) {
    for (long i = 0; i < n; i++) {
        grad[i] = grad[i] * (pre[i] > 0.0 ? 1.0 : 0.0);
    }
}

/* A whole optimizer step for a stack of learners in one call: for each of
   nrows learners, the same k row-strided regions (one per parameter
   array; shapes shared, pointer tables prepared once per stack by the
   caller, nrows * k entries each), with that learner's own learning rate
   and bias corrections. */
void adam_step_rows(long nrows, long k, const long *rows, const long *cols,
                    const long *strides, double **ps, double **gs,
                    double **ms, double **vs, const double *lr,
                    const double *bc1, const double *bc2,
                    double beta1, double beta2, double eps) {
    for (long s = 0; s < nrows; s++) {
        for (long i = 0; i < k; i++) {
            long j = s * k + i;
            adam_step_region(rows[i], cols[i], strides[i], ps[j], gs[j],
                             ms[j], vs[j], lr[s], beta1, beta2, eps,
                             bc1[s], bc2[s]);
        }
    }
}

/* Sum of squares of each of nrows contiguous rows of n doubles, in eight
   interleaved partial sums.  Not bitwise-equal to any NumPy reduction and
   not meant to be: it only screens gradient norms (its relative error is
   far below the learner's clip-screen margin), single-threaded where a
   BLAS dot of this size would wake a second thread. */
void row_sumsq(long nrows, long n, const double *x, double *out) {
    for (long s = 0; s < nrows; s++) {
        const double *r = x + s * n;
        double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
        long i = 0;
        for (; i + 8 <= n; i += 8) {
            for (long k = 0; k < 8; k++) acc[k] += r[i + k] * r[i + k];
        }
        for (; i < n; i++) acc[0] += r[i] * r[i];
        out[s] = ((acc[0] + acc[1]) + (acc[2] + acc[3]))
               + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    }
}

/* ---- batched fleet kernels --------------------------------------------- */

/* One whole DeviceFleet.execute step over n sessions, in place, mirroring
   the NumPy path of repro.hardware.fleet exactly.  Every pointer is bound
   once per fleet (the fleet's state arrays never move), so a step is one
   call with one argument.  Per session j:

     u      = minimum(maximum(util, 0), 1)                      per domain
     power  = (idle + ((cap * vsq[lvl]) * freq[lvl]) * u)
              + leak * exp(minimum(coef * (T - ref), 4))         pre-step T
     RC sub-stepping of the (nodes x n) temperatures, exactly as
       while any(remaining > 1e-12):
           dt      = active ? min(max_substep, remaining) : 0
           deltas  = ((power - (T - ambient)/R) - coupled) / C * dt
                     -- ALL rows from pre-step temps (two-pass via scratch)
           T      += deltas;  remaining -= dt
     with couplings visited in list order per row (first as node_a, then
     as node_b) and zero power on rows that are neither cpu nor gpu;
     throttler hysteresis on the post-step temperatures (release at
     T <= release, engage at T >= trip, counting engagements);
     level  = throttled ? minimum(requested, throttled_level) : requested
     energy = (cpu_power + gpu_power) * (duration / 1e3); totals += ...

   exp() is libm's, the function math.exp calls, so leakage rounds exactly
   like the scalar model's per-session math.exp.  minimum/maximum keep
   NumPy's NaN propagation (`a <= b || isnan(a) ? a : b`). */
typedef struct {
    const double *frequency_khz;
    const double *voltage_sq_mv;
    double idle_power, leakage_power, leak_coef, leak_ref, eff_cap;
    double trip, release;
    long long throttled_level;
    long node;
    const double *utilisation;
    const long long *requested;
    long long *level;
    unsigned char *throttled;
    long long *engage_count;
    double *power;
} fleet_domain;

typedef struct {
    long nodes, n, ncoup;
    double max_substep;
    const double *resistance, *heat_capacity;
    const long *ca, *cb;
    const double *cc;
    double *temps;
    const double *ambient;
    const double *duration;
    double *remaining, *dt, *deltas;
    double *energy, *total_energy, *elapsed;
    fleet_domain cpu, gpu;
} fleet_device;

static void domain_power(const fleet_domain *d, const double *temps, long n) {
    const double *t = temps + d->node * n;
    for (long j = 0; j < n; j++) {
        double u = d->utilisation[j];
        u = (u >= 0.0 || isnan(u)) ? u : 0.0;
        u = (u <= 1.0 || isnan(u)) ? u : 1.0;
        long long lvl = d->level[j];
        double dynamic = ((d->eff_cap * d->voltage_sq_mv[lvl])
                          * d->frequency_khz[lvl]) * u;
        double x = d->leak_coef * (t[j] - d->leak_ref);
        x = (x <= 4.0 || isnan(x)) ? x : 4.0;
        d->power[j] = (d->idle_power + dynamic) + d->leakage_power * exp(x);
    }
}

static void domain_throttle(fleet_domain *d, const double *temps, long n) {
    const double *t = temps + d->node * n;
    for (long j = 0; j < n; j++) {
        unsigned char th = d->throttled[j];
        if (th) {
            if (t[j] <= d->release) th = 0;
        } else if (t[j] >= d->trip) {
            th = 1;
            d->engage_count[j] += 1;
        }
        d->throttled[j] = th;
        long long r = d->requested[j];
        d->level[j] = (th && d->throttled_level < r) ? d->throttled_level : r;
    }
}

void fleet_device_step(fleet_device *f) {
    long nodes = f->nodes, n = f->n;
    double *temps = f->temps;
    domain_power(&f->cpu, temps, n);
    domain_power(&f->gpu, temps, n);
    for (long j = 0; j < n; j++) f->remaining[j] = f->duration[j] / 1e3;
    for (;;) {
        int any_active = 0;
        for (long j = 0; j < n; j++) {
            double rem = f->remaining[j];
            if (rem > 1e-12) {
                any_active = 1;
                f->dt[j] = f->max_substep < rem ? f->max_substep : rem;
            } else {
                f->dt[j] = 0.0;
            }
        }
        if (!any_active) break;
        for (long r = 0; r < nodes; r++) {
            const double *tr = temps + r * n;
            const double *pr = r == f->gpu.node ? f->gpu.power
                             : r == f->cpu.node ? f->cpu.power : 0;
            double *dr = f->deltas + r * n;
            double res = f->resistance[r];
            double hc = f->heat_capacity[r];
            for (long j = 0; j < n; j++) {
                double to_ambient = (tr[j] - f->ambient[j]) / res;
                double coupled = 0.0;
                for (long k = 0; k < f->ncoup; k++) {
                    if (f->ca[k] == r) {
                        coupled = coupled + f->cc[k] * (tr[j] - temps[f->cb[k] * n + j]);
                    } else if (f->cb[k] == r) {
                        coupled = coupled + f->cc[k] * (tr[j] - temps[f->ca[k] * n + j]);
                    }
                }
                double net_flow = ((pr ? pr[j] : 0.0) - to_ambient) - coupled;
                dr[j] = (net_flow / hc) * f->dt[j];
            }
        }
        for (long i = 0; i < nodes * n; i++) temps[i] += f->deltas[i];
        for (long j = 0; j < n; j++) f->remaining[j] -= f->dt[j];
    }
    domain_throttle(&f->cpu, temps, n);
    domain_throttle(&f->gpu, temps, n);
    for (long j = 0; j < n; j++) {
        double e = (f->cpu.power[j] + f->gpu.power[j]) * (f->duration[j] / 1e3);
        f->energy[j] = e;
        f->total_energy[j] += e;
        f->elapsed[j] += f->duration[j];
    }
}

/* Fused bias add + ReLU for one hidden layer of a stack of learners:
     z[s][i][j] += b[s][j];  act[s][i][j] = maximum(z[s][i][j], 0.0)
   over nrows contiguous (rows x cols) blocks; block s's bias starts
   s * b_row elements after b (each learner's parameters live one row of
   the stack's pair buffer apart).  `act` may alias `z` (the inference
   path reuses the matmul output).  The comparison is
   `zv >= 0.0 ? zv : 0.0`, NumPy maximum's tie rule, so the sign of a -0.0
   pre-activation survives exactly as in NumPy. */
void bias_relu(long nrows, long rows, long cols, double *z, const double *b,
               long b_row, double *act) {
    for (long s = 0; s < nrows; s++) {
        const double *bs = b + s * b_row;
        for (long r = 0; r < rows; r++) {
            double *zr = z + (s * rows + r) * cols;
            double *ar = act + (s * rows + r) * cols;
            for (long c = 0; c < cols; c++) {
                double zv = zr[c] + bs[c];
                zr[c] = zv;
                ar[c] = zv >= 0.0 ? zv : 0.0;
            }
        }
    }
}

/* Fused bias add (+ optional ReLU) over one (nrows, 2, batch, units) layer
   of the stacked online/target pair forward, in place.  The online and
   target halves of learner s carry different bias vectors, at
   b + s * b_row and b_half elements further on (the pair buffer keeps
   each learner's online and target parameters a fixed distance apart).
   Ops per element match `z += b; maximum(z, 0, out=z)` exactly — same
   addition, same `zv >= 0.0 ? zv : 0.0` tie rule as bias_relu above. */
void pair_bias_relu(long nrows, long batch, long units, double *z,
                    const double *b, long b_row, long b_half, long relu) {
    for (long s = 0; s < nrows; s++) {
        for (long h = 0; h < 2; h++) {
            const double *bh = b + s * b_row + h * b_half;
            double *zh = z + (2 * s + h) * batch * units;
            for (long r = 0; r < batch; r++) {
                double *zr = zh + r * units;
                for (long c = 0; c < units; c++) {
                    double zv = zr[c] + bh[c];
                    zr[c] = relu ? (zv >= 0.0 ? zv : 0.0) : zv;
                }
            }
        }
    }
}

/* The double-DQN TD-target tail, fused over the final (nrows, 2, batch,
   actions) pair layer straight after its matmul (bias not yet added; the
   biases are laid out as for pair_bias_relu): per sample, bias-add the
   online row, argmax it with NumPy's exact semantics (first occurrence
   wins ties, any NaN wins immediately at its first position), gather the
   target Q at that action (bias added on the fly — same addition as the
   full broadcast, just only at the gathered cell), and emit
   `(target_q * discount) + rewards[s][i]` — the exact operand pairing of
   the NumPy sequence `max_next_q *= discount; max_next_q += rewards`. */
void pair_q_targets(long nrows, long batch, long actions, const double *z,
                    const double *b, long b_row, long b_half,
                    double discount, const double *rewards, double *out) {
    for (long s = 0; s < nrows; s++) {
        const double *b0 = b + s * b_row;
        const double *b1 = b0 + b_half;
        const double *zon = z + 2 * s * batch * actions;
        const double *ztgt = zon + batch * actions;
        for (long i = 0; i < batch; i++) {
            const double *onl = zon + i * actions;
            long best = 0;
            double bestv = onl[0] + b0[0];
            if (!isnan(bestv)) {
                for (long c = 1; c < actions; c++) {
                    double v = onl[c] + b0[c];
                    if (isnan(v)) { best = c; break; }
                    if (v > bestv) { bestv = v; best = c; }
                }
            }
            double tv = ztgt[i * actions + best] + b1[best];
            out[s * batch + i] = (tv * discount) + rewards[s * batch + i];
        }
    }
}

/* Fused Q gather + Huber prep + gradient scatter: gathers the taken
   (row, action) predictions from the ravelled (batch, actions) output
   plane, computes per-element Huber losses and the clipped,
   count-normalised gradient against the targets (the exact operand
   pairings of DqnLearner's NumPy sequence; the loss mean stays with
   NumPy, whose pairwise summation order must be preserved), and scatters
   the per-sample gradients into a zeroed (batch * actions) flat gradient
   plane.  Replaces take + the Huber ops + fill(0) + fancy-index
   scatter with one pass. */
void q_huber_scatter(long n, long actions, const double *outputs,
                     const long *flat_index, const double *targets,
                     double delta, double count, double *losses,
                     double *grad_flat) {
    for (long i = 0; i < n * actions; i++) {
        grad_flat[i] = 0.0;
    }
    for (long i = 0; i < n; i++) {
        double e = outputs[flat_index[i]] - targets[i];
        double a = fabs(e);
        double q = a < delta ? a : delta;       /* minimum(abs, delta) */
        double l = a - q;                       /* linear part */
        losses[i] = (0.5 * (q * q)) + (delta * l);
        double c = e > -delta ? e : -delta;     /* maximum(e, -delta) */
        c = c < delta ? c : delta;              /* minimum(., delta)  */
        grad_flat[flat_index[i]] = c / count;
    }
}
"""

# -ffp-contract=off: no multiply-add fusion (rounding must match NumPy's
# two-step ops).  -fno-math-errno: allows sqrt to vectorize (sqrtpd is still
# correctly rounded; only errno bookkeeping is dropped).  SIMD div/sqrt are
# IEEE-exact per element, so vectorization cannot change results.
_CFLAGS = [
    "-O3",
    "-march=native",
    "-fno-math-errno",
    "-ffp-contract=off",
    "-shared",
    "-fPIC",
    "-lm",
]

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)


class RowsPlan:
    """Pointer/dimension tables for one fused Adam step over a learner stack.

    ``rows``/``cols``/``strides`` describe the ``k`` regions every learner
    updates (shared shapes); ``ps``/``gs``/``ms``/``vs`` hold ``nrows * k``
    raw addresses, learner-major.
    """

    __slots__ = ("nrows", "k", "rows", "cols", "strides", "ps", "gs", "ms", "vs")

    def __init__(self, nrows, k, rows, cols, strides, ps, gs, ms, vs):
        self.nrows = nrows
        self.k = k
        self.rows = rows
        self.cols = cols
        self.strides = strides
        self.ps = ps
        self.gs = gs
        self.ms = ms
        self.vs = vs


class FleetDomainPlan(ctypes.Structure):
    """One frequency domain of a :class:`FleetDevicePlan` (the C
    ``fleet_domain``): power constants, throttle thresholds and the
    addresses of the domain's per-session arrays."""

    _fields_ = [
        ("frequency_khz", ctypes.c_void_p),
        ("voltage_sq_mv", ctypes.c_void_p),
        ("idle_power", ctypes.c_double),
        ("leakage_power", ctypes.c_double),
        ("leak_coef", ctypes.c_double),
        ("leak_ref", ctypes.c_double),
        ("eff_cap", ctypes.c_double),
        ("trip", ctypes.c_double),
        ("release", ctypes.c_double),
        ("throttled_level", ctypes.c_longlong),
        ("node", ctypes.c_long),
        ("utilisation", ctypes.c_void_p),
        ("requested", ctypes.c_void_p),
        ("level", ctypes.c_void_p),
        ("throttled", ctypes.c_void_p),
        ("engage_count", ctypes.c_void_p),
        ("power", ctypes.c_void_p),
    ]


class FleetDevicePlan(ctypes.Structure):
    """Everything one :c:func:`fleet_device_step` call reads or writes (the
    C ``fleet_device``): dimensions, thermal constants and the addresses of
    the fleet's persistent state, input, output and scratch arrays."""

    _fields_ = [
        ("nodes", ctypes.c_long),
        ("n", ctypes.c_long),
        ("ncoup", ctypes.c_long),
        ("max_substep", ctypes.c_double),
        ("resistance", ctypes.c_void_p),
        ("heat_capacity", ctypes.c_void_p),
        ("ca", ctypes.c_void_p),
        ("cb", ctypes.c_void_p),
        ("cc", ctypes.c_void_p),
        ("temps", ctypes.c_void_p),
        ("ambient", ctypes.c_void_p),
        ("duration", ctypes.c_void_p),
        ("remaining", ctypes.c_void_p),
        ("dt", ctypes.c_void_p),
        ("deltas", ctypes.c_void_p),
        ("energy", ctypes.c_void_p),
        ("total_energy", ctypes.c_void_p),
        ("elapsed", ctypes.c_void_p),
        ("cpu", FleetDomainPlan),
        ("gpu", FleetDomainPlan),
    ]


class _FusedAdam:
    """ctypes wrapper around the compiled kernels.

    All pointer arguments are typed ``c_void_p`` so callers can pass raw
    integer addresses (``array.ctypes.data``); hot paths take those
    addresses once for their long-lived buffers instead of paying the
    ctypes pointer-conversion machinery on every call (the ``*_raw``
    methods and :class:`RowsPlan`).
    """

    def __init__(self, lib: ctypes.CDLL):
        def bind(name: str, *argtypes) -> ctypes._CFuncPtr:
            function = getattr(lib, name)
            function.restype = None
            function.argtypes = list(argtypes)
            return function

        long_, double, ptr = ctypes.c_long, ctypes.c_double, ctypes.c_void_p
        self._flat = bind(
            "adam_step_flat", long_, ptr, ptr, ptr, ptr,
            double, double, double, double, double, double,
        )
        self._rows = bind(
            "adam_step_rows", long_, long_,
            ctypes.POINTER(long_), ctypes.POINTER(long_), ctypes.POINTER(long_),
            ctypes.POINTER(ptr), ctypes.POINTER(ptr),
            ctypes.POINTER(ptr), ctypes.POINTER(ptr),
            ptr, ptr, ptr, double, double, double,
        )
        self._relu_mask = bind("relu_mask", long_, ptr, ptr)
        self._row_sumsq = bind("row_sumsq", long_, long_, ptr, ptr)
        self._device_step = bind("fleet_device_step", ptr)
        self._bias_relu = bind("bias_relu", long_, long_, long_, ptr, ptr, long_, ptr)
        self._pair_bias_relu = bind(
            "pair_bias_relu", long_, long_, long_, ptr, ptr, long_, long_, long_,
        )
        self._pair_q_targets = bind(
            "pair_q_targets", long_, long_, long_, ptr, ptr, long_, long_,
            double, ptr, ptr,
        )
        self._q_huber_scatter = bind(
            "q_huber_scatter", long_, long_, ptr, ptr, ptr, double, double, ptr, ptr,
        )

    @staticmethod
    def _ptr(array: np.ndarray) -> int:
        return array.ctypes.data

    # -- learner kernels -----------------------------------------------------

    def make_rows_plan(
        self,
        region_shapes: list,
        params: list,
        grads: list,
        first_moments: list,
        second_moments: list,
    ) -> RowsPlan:
        """Precompute the tables for :meth:`step_rows`.

        ``region_shapes`` lists ``(rows, cols, row_stride)`` (in elements)
        per region; the other four arguments are flat, learner-major lists
        of raw addresses, ``len(region_shapes)`` per learner.  Every buffer
        must stay alive and in place for the plan's lifetime.
        """
        k = len(region_shapes)
        n = len(params)
        table = ctypes.c_void_p * n
        return RowsPlan(
            nrows=n // k,
            k=k,
            rows=(ctypes.c_long * k)(*[shape[0] for shape in region_shapes]),
            cols=(ctypes.c_long * k)(*[shape[1] for shape in region_shapes]),
            strides=(ctypes.c_long * k)(*[shape[2] for shape in region_shapes]),
            ps=table(*params),
            gs=table(*grads),
            ms=table(*first_moments),
            vs=table(*second_moments),
        )

    def step_rows(
        self,
        plan: RowsPlan,
        lr_addr: int,
        bc1_addr: int,
        bc2_addr: int,
        beta1: float,
        beta2: float,
        eps: float,
    ) -> None:
        """One Adam step for every learner of ``plan``, each with its own
        learning rate and bias corrections (``nrows``-long double arrays)."""
        _obs.kernel_call("step_rows")
        self._rows(
            plan.nrows, plan.k, plan.rows, plan.cols, plan.strides,
            plan.ps, plan.gs, plan.ms, plan.vs,
            lr_addr, bc1_addr, bc2_addr, beta1, beta2, eps,
        )

    def relu_mask_raw(self, n: int, grad_addr: int, pre_addr: int) -> None:
        """``grad *= pre > 0`` over ``n`` contiguous doubles (raw addresses)."""
        _obs.kernel_call("relu_mask_raw")
        self._relu_mask(n, grad_addr, pre_addr)

    def row_sumsq_raw(self, nrows: int, n: int, x_addr: int, out_addr: int) -> None:
        """Sum of squares of each of ``nrows`` contiguous rows of ``n``
        doubles (a screen, not bitwise-equal to a NumPy reduction)."""
        _obs.kernel_call("row_sumsq")
        self._row_sumsq(nrows, n, x_addr, out_addr)

    def bias_relu(self, z: np.ndarray, b: np.ndarray, act: np.ndarray) -> None:
        """``z += b`` then ``act = maximum(z, 0)`` for one hidden layer.

        ``z`` and ``act`` are ``(batch, units)`` C-contiguous float64 and may
        be the same array; ``b`` is the contiguous active bias slice.
        """
        _obs.kernel_call("bias_relu")
        rows, cols = z.shape
        self._bias_relu(1, rows, cols, self._ptr(z), self._ptr(b), 0, self._ptr(act))

    def bias_relu_raw(
        self,
        nrows: int,
        rows: int,
        cols: int,
        z_addr: int,
        b_addr: int,
        b_row: int,
        act_addr: int,
    ) -> None:
        """:meth:`bias_relu` over ``nrows`` stacked ``(rows, cols)`` blocks
        (raw addresses); block ``s`` adds the bias ``s * b_row`` elements
        after ``b_addr``."""
        _obs.kernel_call("bias_relu_raw")
        self._bias_relu(nrows, rows, cols, z_addr, b_addr, b_row, act_addr)

    def pair_bias_relu_raw(
        self,
        nrows: int,
        batch: int,
        units: int,
        z_addr: int,
        b_addr: int,
        b_row: int,
        b_half: int,
        relu: bool,
    ) -> None:
        """Bias add (+ ReLU when ``relu``) over one stacked pair layer.

        ``z`` is the C-contiguous ``(nrows, 2, batch, units)`` activation
        scratch (online half first); learner ``s``'s online bias starts
        ``s * b_row`` elements after ``b_addr`` and its target bias
        ``b_half`` elements after that.
        """
        _obs.kernel_call("pair_bias_relu")
        self._pair_bias_relu(
            nrows, batch, units, z_addr, b_addr, b_row, b_half, 1 if relu else 0
        )

    def pair_q_targets_raw(
        self,
        nrows: int,
        batch: int,
        actions: int,
        z_addr: int,
        b_addr: int,
        b_row: int,
        b_half: int,
        discount: float,
        rewards_addr: int,
        out_addr: int,
    ) -> None:
        """Double-DQN TD targets from the biasless final pair layer.

        ``z`` is the ``(nrows, 2, batch, actions)`` output of the last
        stacked matmul (bias NOT yet added — the kernel folds it in; bias
        layout as in :meth:`pair_bias_relu_raw`).  Writes
        ``(target_q[argmax online_q] * discount) + rewards`` into the
        ``(nrows, batch)`` ``out``.
        """
        _obs.kernel_call("pair_q_targets")
        self._pair_q_targets(
            nrows, batch, actions, z_addr, b_addr, b_row, b_half,
            discount, rewards_addr, out_addr,
        )

    def q_huber_scatter_raw(
        self,
        n: int,
        actions: int,
        outputs_addr: int,
        flat_index_addr: int,
        targets_addr: int,
        delta: float,
        count: float,
        losses_addr: int,
        grad_flat_addr: int,
    ) -> None:
        """Fused Q gather + Huber prep + gradient scatter (raw addresses).

        Zero-fills the ``n * actions`` flat gradient plane, then per sample
        gathers ``outputs[flat_index[i]]``, computes the Huber loss and its
        clipped, ``count``-normalised gradient against ``targets``, and
        scatters the gradient back at ``flat_index[i]``.
        """
        _obs.kernel_call("q_huber_scatter_raw")
        self._q_huber_scatter(
            n, actions, outputs_addr, flat_index_addr, targets_addr,
            delta, count, losses_addr, grad_flat_addr,
        )

    def step_flat(
        self,
        params: np.ndarray,
        grads: np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        bc1: float,
        bc2: float,
    ) -> None:
        _obs.kernel_call("step_flat")
        self._flat(
            params.size, self._ptr(params), self._ptr(grads),
            self._ptr(m), self._ptr(v), lr, beta1, beta2, eps, bc1, bc2,
        )

    # -- fleet kernels -------------------------------------------------------

    def bind_device_step(self, plan: FleetDevicePlan) -> Callable[[], None]:
        """A zero-argument callable running :c:func:`fleet_device_step` on
        ``plan``.  Every buffer the plan addresses must stay alive and in
        place while the callable is in use; the callable keeps the plan
        itself alive."""
        function = self._device_step
        address = ctypes.addressof(plan)

        def step() -> None:
            _obs.kernel_call("fleet_device_step")
            function(address)

        step.plan = plan
        return step


def _reference_step(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2):
    """The NumPy op sequence the kernel must reproduce bit for bit."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    s = m / bc1
    s *= lr
    denom = np.sqrt(v / bc2)
    denom += eps
    s /= denom
    p -= s


def _self_test(kernel: _FusedAdam) -> bool:
    rng = np.random.default_rng(12345)
    n = 1337
    p0 = rng.normal(size=n)
    g0 = rng.normal(size=n)
    m0 = rng.normal(size=n) * 0.1
    v0 = np.abs(rng.normal(size=n)) * 0.01
    args = (0.003, 0.9, 0.99, 1e-8, 0.3, 0.05)
    p_ref, m_ref, v_ref = p0.copy(), m0.copy(), v0.copy()
    _reference_step(p_ref, g0, m_ref, v_ref, *args)
    p_c, m_c, v_c = p0.copy(), m0.copy(), v0.copy()
    kernel.step_flat(p_c, g0, m_c, v_c, *args)
    if not (
        np.array_equal(p_ref, p_c)
        and np.array_equal(m_ref, m_c)
        and np.array_equal(v_ref, v_c)
    ):
        return False
    # Stacked rows: two learners, each a strided matrix region plus a
    # vector, with per-learner learning rates and bias corrections.
    shapes = [(8, 12, 16), (1, 14, 14)]
    learners = []
    for _ in range(2):
        pw = rng.normal(size=(10, 16))
        mw = rng.normal(size=(10, 16)) * 0.1
        vw = np.abs(rng.normal(size=(10, 16))) * 0.01
        gw = rng.normal(size=(8, 12))
        pb = rng.normal(size=20)
        mb = rng.normal(size=20) * 0.1
        vb = np.abs(rng.normal(size=20)) * 0.01
        gb = rng.normal(size=14)
        learners.append((pw, mw, vw, gw, pb, mb, vb, gb))
    lr = np.array([0.003, 0.0007])
    bc1 = np.array([0.3, 0.6])
    bc2 = np.array([0.05, 0.2])
    refs = []
    for s, (pw, mw, vw, gw, pb, mb, vb, gb) in enumerate(learners):
        ref = [x.copy() for x in (pw, mw, vw, pb, mb, vb)]
        row_args = (lr[s], 0.9, 0.99, 1e-8, bc1[s], bc2[s])
        _reference_step(ref[0][:8, :12], gw, ref[1][:8, :12], ref[2][:8, :12], *row_args)
        _reference_step(ref[3][:14], gb, ref[4][:14], ref[5][:14], *row_args)
        refs.append(ref)
    plan = kernel.make_rows_plan(
        shapes,
        [x.ctypes.data for l in learners for x in (l[0], l[4])],
        [x.ctypes.data for l in learners for x in (l[3], l[7])],
        [x.ctypes.data for l in learners for x in (l[1], l[5])],
        [x.ctypes.data for l in learners for x in (l[2], l[6])],
    )
    kernel.step_rows(
        plan, lr.ctypes.data, bc1.ctypes.data, bc2.ctypes.data, 0.9, 0.99, 1e-8
    )
    for ref, (pw, mw, vw, _, pb, mb, vb, _) in zip(refs, learners):
        if not all(
            np.array_equal(r, live) for r, live in zip(ref, (pw, mw, vw, pb, mb, vb))
        ):
            return False
    # ReLU mask: must match NumPy's float-by-bool multiply bit for bit,
    # including the sign of zero on masked-out entries.
    pre = rng.normal(size=256)
    g_ref = rng.normal(size=256)
    g_c = g_ref.copy()
    g_ref *= pre > 0.0
    kernel.relu_mask_raw(g_c.size, g_c.ctypes.data, pre.ctypes.data)
    if not np.array_equal(g_ref.view(np.int64), g_c.view(np.int64)):
        return False
    # Row sums of squares: a screen, so close to (not bitwise) the exact sums.
    rows_x = rng.normal(size=(3, 1001))
    sums = np.empty(3)
    kernel.row_sumsq_raw(3, 1001, rows_x.ctypes.data, sums.ctypes.data)
    if not np.allclose(sums, np.einsum("ij,ij->i", rows_x, rows_x), rtol=1e-13, atol=0):
        return False
    if not _device_step_self_test(kernel, rng):
        return False
    # Bias add + ReLU vs. `z += b; maximum(z, 0)`, separate-output and
    # aliased (act is z) forms.
    z0 = rng.normal(size=(17, 23))
    bias = rng.normal(size=23)
    z_ref = z0.copy()
    z_ref += bias
    act_ref = np.maximum(z_ref, 0.0)
    z_c = z0.copy()
    act_c = np.empty_like(z_c)
    kernel.bias_relu(z_c, bias, act_c)
    if not (
        np.array_equal(z_ref.view(np.int64), z_c.view(np.int64))
        and np.array_equal(act_ref.view(np.int64), act_c.view(np.int64))
    ):
        return False
    z_alias = z0.copy()
    kernel.bias_relu(z_alias, bias, z_alias)
    if not np.array_equal(act_ref.view(np.int64), z_alias.view(np.int64)):
        return False
    # Stacked form: two learners' blocks with their biases `row` elements
    # apart in one buffer.
    row_elems = 31
    bias_rows = rng.normal(size=row_elems + 23)
    zs0 = rng.normal(size=(2, 17, 23))
    zs_ref = zs0.copy()
    zs_ref[0] += bias_rows[:23]
    zs_ref[1] += bias_rows[row_elems : row_elems + 23]
    acts_ref = np.maximum(zs_ref, 0.0)
    zs_c = zs0.copy()
    acts_c = np.empty_like(zs_c)
    kernel.bias_relu_raw(
        2, 17, 23, zs_c.ctypes.data, bias_rows.ctypes.data, row_elems,
        acts_c.ctypes.data,
    )
    if not (
        np.array_equal(zs_ref.view(np.int64), zs_c.view(np.int64))
        and np.array_equal(acts_ref.view(np.int64), acts_c.view(np.int64))
    ):
        return False
    # Pair bias add (+ ReLU) over a (learners, 2, batch, units) stacked
    # layer, with each learner's two bias halves `half` elements apart and
    # the learners `row` elements apart, like the real pair parameter
    # buffer (strided (learners, 2, 1, units) view); relu and no-relu forms.
    units, half_elems, row_elems, off = 23, 40, 90, 3
    pair_flat = rng.normal(size=off + row_elems + half_elems + units)
    itemsize = pair_flat.itemsize
    pair_b = np.lib.stride_tricks.as_strided(
        pair_flat[off : off + units],
        shape=(2, 2, 1, units),
        strides=(row_elems * itemsize, half_elems * itemsize, 0, itemsize),
    )
    zp0 = rng.normal(size=(2, 2, 17, units))
    for relu in (True, False):
        zp_ref = zp0.copy()
        zp_ref += pair_b
        if relu:
            np.maximum(zp_ref, 0.0, out=zp_ref)
        zp_c = zp0.copy()
        kernel.pair_bias_relu_raw(
            2, 17, units, zp_c.ctypes.data, pair_b.ctypes.data,
            row_elems, half_elems, relu,
        )
        if not np.array_equal(zp_ref.view(np.int64), zp_c.view(np.int64)):
            return False
    # Double-DQN TD targets from the biasless final pair layer of two
    # learners, including an exact post-bias tie (first occurrence must
    # win), a NaN mid-row and a NaN at position 0 (NumPy argmax returns the
    # first NaN's index).
    actions, bq_half, bq_row, bq_off = 5, 12, 30, 2
    bq_flat = rng.normal(size=bq_off + bq_row + bq_half + actions)
    bq = np.lib.stride_tricks.as_strided(
        bq_flat[bq_off : bq_off + actions],
        shape=(2, 2, 1, actions),
        strides=(bq_row * itemsize, bq_half * itemsize, 0, itemsize),
    )
    zq = rng.normal(size=(2, 2, 9, actions))
    bq_flat[bq_off + 1] = 0.25
    bq_flat[bq_off + 4] = 0.25
    zq[0, 0, 2] = 0.0
    zq[0, 0, 2, 1] = 3.5
    zq[0, 0, 2, 4] = 3.5
    zq[0, 0, 1, 2] = np.nan
    zq[1, 0, 3, 0] = np.nan
    rewards_q = rng.normal(size=(2, 9))
    discount_q = 0.9
    zq_biased = zq + bq
    best_q = np.argmax(zq_biased[:, 0], axis=2)
    tv = np.take_along_axis(zq_biased[:, 1], best_q[..., None], axis=2)[..., 0]
    out_ref = (tv * discount_q) + rewards_q
    out_c = np.empty((2, 9))
    kernel.pair_q_targets_raw(
        2, 9, actions, zq.ctypes.data, bq.ctypes.data, bq_row, bq_half,
        discount_q, rewards_q.ctypes.data, out_c.ctypes.data,
    )
    if not np.array_equal(out_ref.view(np.int64), out_c.view(np.int64)):
        return False
    # Fused gather + Huber prep + gradient scatter vs. the NumPy take /
    # huber sequence / fill-and-fancy-index scatter, with errors on both
    # sides of delta.
    delta = 1.0
    hb, ha = 13, 5
    outs = rng.normal(scale=3.0, size=(hb, ha))
    taken = rng.integers(ha, size=hb)
    fi = (np.arange(hb) * ha + taken).astype(np.intp)
    targs_h = rng.normal(size=hb)
    preds_h = outs.reshape(-1)[fi]
    err_h = preds_h - targs_h
    abs_h = np.abs(err_h)
    quad_h = np.minimum(abs_h, delta)
    losses_href = 0.5 * (quad_h * quad_h) + delta * (abs_h - quad_h)
    grad_vals = np.minimum(np.maximum(err_h, -delta), delta) / float(hb)
    grad_flat_ref = np.zeros(hb * ha)
    grad_flat_ref[fi] = grad_vals
    losses_hc = np.empty(hb)
    grad_flat_c = np.empty(hb * ha)
    kernel.q_huber_scatter_raw(
        hb, ha, outs.ctypes.data, fi.ctypes.data, targs_h.ctypes.data,
        delta, float(hb), losses_hc.ctypes.data, grad_flat_c.ctypes.data,
    )
    return bool(
        np.array_equal(losses_href.view(np.int64), losses_hc.view(np.int64))
        and np.array_equal(grad_flat_ref.view(np.int64), grad_flat_c.view(np.int64))
    )


def _device_step_self_test(kernel: _FusedAdam, rng: np.random.Generator) -> bool:
    """``fleet_device_step`` vs. the NumPy ``DeviceFleet.execute``, bitwise.

    Two fleets of one device start from the same random state — node
    temperatures around the trip point, throttles half engaged, random
    requested levels — and take the same steps (zero, sub-step and
    multi-sub-step durations; utilisations outside [0, 1] so the clip
    engages), one on the NumPy path and one on the kernel.  Every
    telemetry array after each step, and the whole state at the end, must
    agree bit for bit, which also proves C ``exp`` equals the per-session
    ``math.exp`` of the NumPy leakage model on these inputs.
    """
    # Imported here: repro.hardware.fleet imports this module.
    from repro.hardware.devices import jetson_orin_nano
    from repro.hardware.fleet import DeviceFleet

    n = 9
    oracle = DeviceFleet(jetson_orin_nano(), n)
    oracle._step = None
    fused = DeviceFleet(jetson_orin_nano(), n)
    fused._bind_kernel(kernel)
    state = oracle.state_dict()
    trip = oracle.cpu_throttle.trip_temperature_c
    state["temperatures"] = rng.uniform(trip - 15.0, trip + 5.0, state["temperatures"].shape)
    state["ambient_temperature_c"] = rng.uniform(0.0, 40.0, n)
    for domain, tables in (("cpu", oracle.cpu), ("gpu", oracle.gpu)):
        state[f"{domain}_throttled"] = rng.random(n) < 0.5
        state[f"requested_{domain}_level"] = rng.integers(0, tables.num_levels, n)
    for fleet in (oracle, fused):
        fleet.load_state_dict(state)
        fleet.request_levels(state["requested_cpu_level"], state["requested_gpu_level"])
    for step in range(3):
        duration = rng.uniform(0.0, 160.0 if step % 2 else 40.0, n)
        duration[step] = 0.0
        cpu_util = rng.uniform(-0.2, 1.2, n)
        gpu_util = rng.uniform(-0.2, 1.2, n)
        expected = vars(oracle.execute(duration, cpu_util, gpu_util))
        got = vars(fused.execute(duration, cpu_util, gpu_util))
        if not all(_bitwise_equal(expected[key], got[key]) for key in expected):
            return False
    expected, got = oracle.state_dict(), fused.state_dict()
    return all(_bitwise_equal(expected[key], got[key]) for key in expected)


def _bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "f":
        return bool(np.array_equal(a.view(np.int64), b.view(np.int64)))
    return bool(np.array_equal(a, b))


def _cache_dir() -> Path:
    """Per-user, owner-only cache directory for the compiled library.

    Never a shared world-writable location: loading a ``.so`` from a path
    another local user can pre-create would be code injection.  The
    directory is created 0700 and its ownership verified before use.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = Path(base) / "repro-fused"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    stat = path.stat()
    if hasattr(os, "getuid") and stat.st_uid != os.getuid():
        raise PermissionError(f"{path} is not owned by the current user")
    if stat.st_mode & 0o022:
        raise PermissionError(f"{path} is writable by other users")
    return path


def _cpu_tag() -> str:
    """A string identifying the CPU the kernel is compiled for.

    ``-march=native`` bakes the build host's ISA extensions into the
    binary, so the cache key must change when the CPU does (think NFS home
    directories shared across heterogeneous cluster nodes — loading an
    AVX-512 build on an older core would SIGILL, which no Python-level
    fallback can catch).
    """
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith(("flags", "Features")):
                    return line.strip()
    except OSError:
        pass
    import platform

    return platform.machine() + platform.processor()


def _compile() -> ctypes.CDLL | None:
    digest = hashlib.sha256(
        (_SOURCE + " ".join(_CFLAGS) + _cpu_tag()).encode()
    ).hexdigest()[:16]
    cache_dir = _cache_dir()
    lib_path = cache_dir / f"adam_{digest}.so"
    if not lib_path.exists():
        src_path = cache_dir / f"adam_{digest}.c"
        src_path.write_text(_SOURCE)
        tmp_path = cache_dir / f"adam_{digest}.{os.getpid()}.so"
        result = subprocess.run(
            ["cc", *_CFLAGS, "-o", str(tmp_path), str(src_path)],
            capture_output=True,
            timeout=60,
        )
        if result.returncode != 0 or not tmp_path.exists():
            return None
        os.replace(tmp_path, lib_path)  # atomic for concurrent processes
    return ctypes.CDLL(str(lib_path))


_kernel: _FusedAdam | None = None
_resolved = False


def fused_adam() -> _FusedAdam | None:
    """The verified fused-Adam kernel, or ``None`` if unavailable.

    Resolution (compile + bitwise self-test) happens once per process; the
    result is cached, including negative results.
    """
    global _kernel, _resolved
    if _resolved:
        return _kernel
    _resolved = True
    if os.environ.get("REPRO_FUSED", "1") == "0":
        _obs.event("fused.resolved", status="disabled")
        return None
    try:
        lib = _compile()
        if lib is not None:
            kernel = _FusedAdam(lib)
            if _self_test(kernel):
                _kernel = kernel
    except Exception:
        _kernel = None
    _obs.event(
        "fused.resolved", status="fused" if _kernel is not None else "numpy"
    )
    return _kernel


def fused_fleet() -> _FusedAdam | None:
    """The verified fleet kernels, or ``None`` if unavailable.

    The fleet kernels live in the same compiled library as the Adam ones
    and share its resolution: one compile + bitwise self-test per process,
    one ``REPRO_FUSED=0`` kill switch for everything.  The separate entry
    point exists so fleet call sites (:mod:`repro.hardware.fleet`,
    :mod:`repro.rl.slimmable`) read as requesting fleet kernels, not an
    optimizer.
    """
    return fused_adam()


def kernel_status() -> str:
    """Kernel selection state without forcing a compile.

    One of ``"disabled"`` (``REPRO_FUSED=0``), ``"unresolved"`` (no call
    site has asked for a kernel yet this process), ``"fused"`` (compiled
    and bitwise-verified) or ``"numpy"`` (resolution ran and fell back).
    Used by the obs sink to stamp run summaries; unlike
    :func:`fused_adam` it never triggers compilation.
    """
    if os.environ.get("REPRO_FUSED", "1") == "0":
        return "disabled"
    if not _resolved:
        return "unresolved"
    return "fused" if _kernel is not None else "numpy"
