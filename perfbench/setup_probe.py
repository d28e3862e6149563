"""Time one fresh-interpreter set-up of the specdiff CLI.

Usage: python3 setup_probe.py <src dir> <config>

Imports specdiff.cli, parses the config and builds the prior, the LPF and the
DDIM schedules it names, then prints the seconds that took.  The benchmark
runs this in new interpreters because a user pays the imports on every CLI
invocation.
"""

import sys
import time


def main() -> None:
    src, config = sys.argv[1], sys.argv[2]
    start = time.perf_counter()
    sys.path.insert(0, src)
    import specdiff.cli  # noqa: F401
    from specdiff.config import load_config
    from specdiff.schedule import ddim_subsequence, linear_ddpm_schedule
    from specdiff.spectral import make_lpf, make_synthetic_prior

    cfg = load_config(config)
    prior = make_synthetic_prior(cfg.prior_d, cfg.prior_l, cfg.prior_mu_const)
    make_lpf(prior.dim, cfg.V, sigma_y=cfg.sigma_y)
    full = linear_ddpm_schedule(cfg.T)
    for S in cfg.S_list:
        ddim_subsequence(full, S)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
