import pytest

from meanfield_hmc import experiments
from meanfield_hmc.experiments import bias_scan

from test_kernels import uhmc_variance_oracle


def test_bias_scan_single_replica_reproduces_the_single_chain_rows(monkeypatch):
    # the rows the one-chain design wrote for `bias-scan --k-max 2 --steps 120`
    monkeypatch.setattr(experiments, "_BIAS_REPLICAS", 1)
    result = bias_scan(k_max=2, steps=120)
    assert result.rows == [
        (1, 0.5, 4, 0.5, 120, 0.24077487322225144),
        (2, 0.25, 16, 0.3333333333333333, 120, 0.1969201922849852),
    ]


@pytest.mark.parametrize("steps, kept", [
    (120, 110),   # 10 replicas of 12 steps, 1 dropped from each
    (125, 115),   # 5 replicas of 25 steps, 2 dropped from each
    (111, 100),   # one chain of 111 steps, 11 dropped
])
def test_bias_scan_replicas_divide_any_step_count(steps, kept):
    result = bias_scan(k_max=1, steps=steps)
    assert result.rows[0][4] == steps
    assert result.detail[0]["kept"] == kept


def test_bias_scan_first_var_matches_discretized_chain_oracle():
    # In the eigenbasis of M = I - (eps/N) 11^T the chain is one 1-d linear
    # chain per mode: the mean mode with omega^2 = 1 - eps, the N - 1 others
    # with omega^2 = 1.  A coordinate's stationary variance is therefore
    # v(1 - eps)/N + (1 - 1/N) v(1), not the target value 1 + eps/(N(1 - eps)).
    eps, T = 0.25, 1.0
    result = bias_scan(k_max=2, steps=80_000, epsilon=eps, T=T)
    cases = [(row[2], row[3], d) for row, d in zip(result.rows, result.detail)]
    assert [(n, h) for n, h, _ in cases] == [(4, 0.5), (16, pytest.approx(1 / 3))]
    for n, h, d in cases:
        # 10 replicas of 8000 steps, the first 800 of each dropped
        assert d["kept"] == 72_000
        exact = (uhmc_variance_oracle(1.0 - eps, T, h) / n
                 + (1.0 - 1.0 / n) * uhmc_variance_oracle(1.0, T, h))
        assert d["first_var_se"] > 0
        assert abs(d["first_var"] - exact) < 4.0 * d["first_var_se"]
