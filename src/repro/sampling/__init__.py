"""The priority-sampling baseline and the shared sampler contract."""
