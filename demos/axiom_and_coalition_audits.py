"""Verify the pricing mechanism's fairness properties on random communities.

For a batch of seeded random scenarios this checks, interval by interval,
that payments are uniform and cost-causal, that every member does at least
as well as it would alone, and that the operator is budget balanced; then it
confirms no sampled sub-coalition could gain by seceding, and that the
decentralized outcome matches the closed-form centralized welfare.
"""

import numpy as np

from dnem import (
    axiom_audit,
    centralized_welfare_closed_form,
    coalition_audit,
    random_scenario,
    run,
    run_all,
)
from dnem.sim import folded_generation

print("--- axiom audits over 20 random communities ---")
worst = {}
for seed in range(20):
    scenario = random_scenario(seed)
    results = run_all(scenario)
    settled = results["dnem"][0].settlement
    # one report per run: each check holds the worst slack of any interval
    report = axiom_audit(
        settled.net,
        settled.payment,
        settled.surplus,
        scenario.rates.buy,
        scenario.rates.sell,
        results["standalone"][0].settlement.surplus,
    )
    for check in report.checks:
        worst[check.axiom] = max(worst.get(check.axiom, 0.0), check.slack)
    assert report.passed, report.failures()
for axiom, slack in worst.items():
    print(f"{axiom:>28}: worst slack {slack:.2e} $")

print()
print("--- coalition stability, 500 sampled nested pairs ---")
rng = np.random.default_rng(0)
worst_slack = 0.0
for seed in range(20):
    scenario = random_scenario(seed)
    generation = folded_generation(scenario)
    n = len(scenario.members)
    for _ in range(25):
        t = int(rng.integers(0, scenario.horizon))
        superset = [i for i in range(n) if rng.random() < 0.75] or [0]
        subset = [i for i in superset if rng.random() < 0.6] or [superset[0]]
        audit = coalition_audit(
            list(scenario.members),
            generation[:, t],
            float(scenario.rates.buy[t]),
            float(scenario.rates.sell[t]),
            subset,
            superset,
        )
        assert audit.passed
        worst_slack = min(worst_slack, audit.slack)
print(f"smallest coalition slack observed: {worst_slack:.2e} $ (>= 0 means stable)")

print()
print("--- welfare oracle agreement on small instances ---")
for seed in range(5):
    scenario = random_scenario(1000 + seed, max_total_devices=4, horizon=1)
    records, _ = run(scenario, "dnem", compute_gains=False)
    r = records[0]
    buy, sell = float(scenario.rates.buy[0]), float(scenario.rates.sell[0])
    decentralized = sum(o.surplus for o in r.per_member)
    closed = centralized_welfare_closed_form(scenario.members, r.g_n, buy, sell)
    print(f"seed {seed}: decentralized {decentralized:9.5f}  closed-form {closed:9.5f}")
