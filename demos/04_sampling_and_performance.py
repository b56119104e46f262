#!/usr/bin/env python3
"""Look inside the sampler's rejection gates and measure how fast the
planned, batched evaluator gets through the biggest summation domains.

Run:  python3 demos/04_sampling_and_performance.py
"""

from ellsum import SampleConfig, VerificationJob, run_bench, run_job, sample_instance

# --- rejection gates ------------------------------------------------------------
# Draws are rejected near theta poles, when the solved dependent parameter
# is extreme, when z ratios crowd the lattice p^Z, or when the two sides
# cancel catastrophically; a rejected draw is retried.  A report cell counts
# every attempt of its trials, so its histogram shows why attempts fail on
# the largest default grid cell:
config = SampleConfig(seed=77, p_values=(0.2,))
job = VerificationJob(identities="gr-sum", n_values=(4,), N_values=(4,), trials=200,
                      config=config)
(cell,) = run_job(job).cells
hist = cell["rejections"]
print(f"rejection histogram over {sum(hist.values())} attempts of 200 trials "
      "(gr-sum, n=4, N=4, p=0.2):")
for reason, count in hist.items():
    print(f"  {reason:<11} {count}")

# Sampling is replay-deterministic: the same (seed, trial) is the same draw.
a = sample_instance("gr-sum", n=3, N=2, config=config, trial_index=4, p=0.1)
b = sample_instance("gr-sum", n=3, N=2, config=config, trial_index=4, p=0.1)
print(f"\nreplay determinism: {a.params == b.params and a.z == b.z}")

# --- evaluation throughput ------------------------------------------------------
# Each side is evaluated from a cached plan: one batched theta call, one
# running product per shifted-factorial table, then a gather per term, so
# the cost per term falls as the domain grows.
print("\nleft-side evaluation throughput (gr-sum, n = 4):")
rows = run_bench("gr-sum", n=4, N_values=(2, 4, 6, 8),
                 config=SampleConfig(seed=77, p_values=(0.05,)))
print(f"{'N':>3} {'terms':>6} {'us/eval':>9} {'terms/s':>10}")
for row in rows:
    print(f"{row['N']:>3} {row['terms']:>6} {row['seconds'] * 1e6:>9.0f} "
          f"{row['terms_per_second']:>10.0f}")
