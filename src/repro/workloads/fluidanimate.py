"""Fluidanimate (PARVEC benchmark): SPH particle fluid, vectorized.

The PARVEC suite's fluidanimate is an SPH solver; this port keeps its
computational skeleton at reduced scale: per-particle density estimation
with a compact poly6-style kernel (all-pairs, lanes over particles), then a
pressure/viscosity force accumulation and a symplectic Euler integration
step with ground-plane clamping.  Exercises: nested uniform-j loops inside
foreach, varying ternaries, heavy float arithmetic — the scalar-vector mix
the paper reports for fluidanimate (it is their most scalar-heavy C++
benchmark).
"""

from __future__ import annotations

from random import Random

import numpy as np

from .common import ArrayArgs, f32
from .registry import PARVEC, Workload, register

SOURCE = """
export void fluid_step_ispc(uniform float px[], uniform float py[],
                            uniform float vx[], uniform float vy[],
                            uniform float density[],
                            uniform float pxn[], uniform float pyn[],
                            uniform int n, uniform float h,
                            uniform float dt, uniform int steps) {
    uniform float h2 = h * h;
    uniform float rest = 1.0;
    uniform float stiff = 0.5;
    for (uniform int t = 0; t < steps; t++) {
        // Density estimation: all-pairs compact kernel.
        foreach (i = 0 ... n) {
            float xi = px[i];
            float yi = py[i];
            float d = 0.0;
            for (uniform int j = 0; j < n; j++) {
                float dx = xi - px[j];
                float dy = yi - py[j];
                float r2 = dx * dx + dy * dy;
                if (r2 < h2) {
                    float w = h2 - r2;
                    d += w * w * w;
                }
            }
            density[i] = d;
        }
        // Pressure force + integration.
        foreach (i = 0 ... n) {
            float xi = px[i];
            float yi = py[i];
            float pi_ = stiff * (density[i] - rest);
            float fx = 0.0;
            float fy = 0.0;
            for (uniform int j = 0; j < n; j++) {
                float dx = xi - px[j];
                float dy = yi - py[j];
                float r2 = dx * dx + dy * dy;
                if (r2 < h2 && r2 > 1.0e-12) {
                    float r = sqrt(r2);
                    float pj = stiff * (density[j] - rest);
                    float push = (pi_ + pj) * (h - r) / r;
                    fx += push * dx;
                    fy += push * dy;
                }
            }
            float nvx = vx[i] + dt * fx;
            float nvy = vy[i] + dt * (fy - 9.8);
            float nx = xi + dt * nvx;
            float ny = yi + dt * nvy;
            // Ground plane: clamp and damp.
            if (ny < 0.0) {
                ny = 0.0;
                nvy = -0.5 * nvy;
            }
            vx[i] = nvx;
            vy[i] = nvy;
            // New positions go to scratch buffers: every lane of this sweep
            // must read the *old* positions of every other particle
            // (in-place update would make results depend on vector width).
            pxn[i] = nx;
            pyn[i] = ny;
        }
        foreach (i = 0 ... n) {
            px[i] = pxn[i];
            py[i] = pyn[i];
        }
    }
}
"""

#: Particle counts standing in for PARSEC's simsmall/simmedium.
_SIZES = (14, 22)
_STEPS = 2


def _sample(rng: Random) -> dict:
    return {"n": rng.choice(_SIZES), "seed": rng.randrange(2**31)}


def _make_runner(params: dict):
    n = params["n"]
    rng = np.random.default_rng(params["seed"])
    px = f32(rng.uniform(0.0, 1.0, n))
    py = f32(rng.uniform(0.1, 1.0, n))
    vx = f32(rng.uniform(-0.1, 0.1, n))
    vy = f32(np.zeros(n))
    h = float(np.float32(0.35))
    dt = float(np.float32(0.01))

    def runner(vm):
        args = ArrayArgs(vm)
        ppx = args.out_f32("px", n, init=px)
        ppy = args.out_f32("py", n, init=py)
        pvx = args.out_f32("vx", n, init=vx)
        pvy = args.out_f32("vy", n, init=vy)
        pd = args.out_f32("density", n)
        pxn = args.in_f32(np.zeros(n), "pxn")
        pyn = args.in_f32(np.zeros(n), "pyn")
        vm.run(
            "fluid_step_ispc",
            [ppx, ppy, pvx, pvy, pd, pxn, pyn, n, h, dt, _STEPS],
        )
        return args.collect()

    return runner


FLUIDANIMATE = register(
    Workload(
        name="fluidanimate",
        suite=PARVEC,
        language="C++",
        description="SPH particle fluid (PARVEC fluidanimate, reduced)",
        source=SOURCE,
        entry="fluid_step_ispc",
        sample_input=_sample,
        make_runner=_make_runner,
        input_summary=f"particles: {list(_SIZES)} x {_STEPS} steps (simsmall/simmedium scaled)",
    )
)
