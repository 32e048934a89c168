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
samples = sample_reverse(world, [cond] * 500, schedule, range(500), shape)  # 500 chains
print("\nreverse sampling, 500 seeds, sigma0=0.5:")
print("  worst |sample mean - mu(c)| per dim:", np.abs(samples.mean(0) - mu).max().round(4))
print("  pooled sample std (target 0.5):    ", samples.std(0).mean().round(4))

# with sigma0 = 0 the sampler must land on mu(c) exactly
sharp = GaussianWorld(sigma0=0.0, mean_map=mean_map)
[out] = sample_reverse(sharp, [cond], schedule, seeds=[123], shape=shape)
print("  sigma0=0 run hits mu(c) to", np.abs(out - mu).max())
