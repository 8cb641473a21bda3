"""Swaptions (PARVEC benchmark): Monte-Carlo swaption pricing, vectorized.

PARVEC's swaptions prices a portfolio with HJM Monte-Carlo simulation;
this port keeps the structure — per-swaption outer loop, simulation paths
across vector lanes, a short-rate path driven by pre-drawn Gaussian shocks,
discounted-payoff averaging — at reduced path counts.  The shocks are
pre-generated host-side (the original's Box-Muller RNG is host code too),
laid out ``[swaption][step][sim]`` so the per-step load is unit-stride
across lanes.
"""

from __future__ import annotations

from random import Random

import numpy as np

from .common import ArrayArgs, f32
from .registry import PARVEC, Workload, register

SOURCE = """
export void swaptions_ispc(uniform float shocks[], uniform float strikes[],
                           uniform float prices[],
                           uniform int nswaptions, uniform int nsims,
                           uniform int nsteps, uniform float r0,
                           uniform float vol, uniform float dt) {
    uniform float sqrtdt = sqrt(dt);
    for (uniform int s = 0; s < nswaptions; s++) {
        uniform float strike = strikes[s];
        varying float payoff_sum = 0.0;
        foreach (sim = 0 ... nsims) {
            float rate = r0;
            float discount = 0.0;
            for (uniform int t = 0; t < nsteps; t++) {
                float z = shocks[(s*nsteps + t)*nsims + sim];
                rate = rate + vol * sqrtdt * z;
                if (rate < 0.0) {
                    rate = 0.0;
                }
                discount = discount + rate * dt;
            }
            float payoff = max(rate - strike, 0.0);
            payoff_sum += exp(-discount) * payoff;
        }
        prices[s] = reduce_add(payoff_sum) / float(nsims);
    }
}
"""

#: (swaptions, simulations) standing in for Table I's [16,64] x [100,200].
_CONFIGS = ((2, 13), (3, 21), (4, 29))
_NSTEPS = 6


def _sample(rng: Random) -> dict:
    nswap, nsims = rng.choice(_CONFIGS)
    return {"nswaptions": nswap, "nsims": nsims, "seed": rng.randrange(2**31)}


def _make_runner(params: dict):
    nswap, nsims = params["nswaptions"], params["nsims"]
    rng = np.random.default_rng(params["seed"])
    shocks = f32(rng.standard_normal(nswap * _NSTEPS * nsims))
    strikes = f32(rng.uniform(0.03, 0.07, nswap))
    r0 = float(np.float32(0.05))
    vol = float(np.float32(0.2))
    dt = float(np.float32(0.1))

    def runner(vm):
        args = ArrayArgs(vm)
        pz = args.in_f32(shocks, "shocks")
        pk = args.in_f32(strikes, "strikes")
        pp = args.out_f32("prices", nswap)
        vm.run(
            "swaptions_ispc",
            [pz, pk, pp, nswap, nsims, _NSTEPS, r0, vol, dt],
        )
        return args.collect()

    return runner


SWAPTIONS = register(
    Workload(
        name="swaptions",
        suite=PARVEC,
        language="C++",
        description="Monte-Carlo swaption pricing (PARVEC swaptions, reduced)",
        source=SOURCE,
        entry="swaptions_ispc",
        sample_input=_sample,
        make_runner=_make_runner,
        input_summary=f"(swaptions, sims): {list(_CONFIGS)} x {_NSTEPS} steps",
    )
)
