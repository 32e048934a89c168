"""Walk through the diffusion core: build a schedule, noise a latent,
invert the step exactly, and sample from the analytic Gaussian backend.

The point of the toy backend: the "model" is the exact Bayesian posterior
for Gaussian data, so the reverse sampler can be checked against closed-form
answers instead of eyeballed.

Run: python3 demos/01_diffusion_basics.py
"""

import numpy as np

from multishot.conditioning import Condition, encode_text_mock, get_projector
from multishot.diffusion import (
    GaussianWorld,
    add_noise,
    ddim_step,
    make_schedule,
    sample_reverse,
)
from multishot.seeds import spawn_rng

schedule = make_schedule(4, 0.1, 0.4)
print("linear schedule, T=4, beta 0.1..0.4")
print("  betas      ", schedule.betas)
print("  alpha_bars ", schedule.alpha_bars, " (cumulative products of 1-beta)")

# forward noising and its exact inversion
rng = np.random.default_rng(0)
x0 = rng.standard_normal((2, 2, 2))
eps = rng.standard_normal((2, 2, 2))
x_t = add_noise(x0, eps, t=3, schedule=schedule)
recovered = ddim_step(x_t, eps, t=3, t_prev=0, schedule=schedule)
print("\nnoise at t=3 then invert with the true eps:")
print("  max |recovered - x0| =", np.abs(recovered - x0).max())

# the analytic world: x0 ~ N(mu(c), sigma0^2 I) with a condition-driven mean
shape = (8, 8, 8)
mean_map = get_projector(0, shape).mean
world = GaussianWorld(sigma0=0.5, mean_map=mean_map)
cond = Condition(text=encode_text_mock("a harbor town at first light", 16, 0))
mu = mean_map(cond)

schedule = make_schedule(50)
# 500 chains, each drawing all its noise from its own generator
rngs = [spawn_rng("reverse-init", seed) for seed in range(500)]
samples = sample_reverse(world, [cond] * 500, schedule, rngs, shape)
print("\nreverse sampling, 500 seeds, sigma0=0.5:")
print("  worst |sample mean - mu(c)| per dim:", np.abs(samples.mean(0) - mu).max().round(4))
print("  pooled sample std (sigma0 0.5; 0.475 in closed form for 50 steps):",
      samples.std(0).mean().round(4))

# at eta = 1 each chain also draws one noise per level from its generator,
# after its x_T: the mean still lands on mu(c), and this 50-step chain's
# closed-form spread is a little narrower (0.449, against 0.475 at eta = 0)
rngs = [spawn_rng("reverse-init", seed) for seed in range(500)]
samples = sample_reverse(world, [cond] * 500, schedule, rngs, shape, eta=1.0)
print("  eta=1: worst |mean - mu(c)|", np.abs(samples.mean(0) - mu).max().round(4),
      " pooled std", samples.std(0).mean().round(4))

# with sigma0 = 0 the sampler must land on mu(c) exactly
sharp = GaussianWorld(sigma0=0.0, mean_map=mean_map)
[out] = sample_reverse(sharp, [cond], schedule, [spawn_rng("reverse-init", 123)], shape)
print("  sigma0=0 run hits mu(c) to", np.abs(out - mu).max())
