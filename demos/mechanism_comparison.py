"""Compare community welfare across pricing mechanisms and export rates.

Three ways to operate the same community: dynamic community pricing, the
sign-based single-rate rule, and no community at all.  The dynamic price
coordinates flexible demand with the shared renewables, so it collects the
largest welfare; the gap widens as the utility's export rate falls.
"""

from dnem import rate_ratio_sweep, run_all, solar_day_scenario

for with_bess in (False, True):
    label = "with storage" if with_bess else "without storage"
    scenario = solar_day_scenario(seed=42, with_bess=with_bess)
    print(f"--- {label} ---")
    for mechanism, (_, summary) in run_all(scenario).items():
        print(f"{mechanism:>11}: {summary.total_welfare:10.4f} $")
    print()

print("--- sensitivity to the export rate (flat buy rate 0.40) ---")
scenario = solar_day_scenario(seed=42, flat_buy=True)
print(f"{'sell/buy':>8}  {'dnem gain %':>12}  {'sign-based gain %':>18}")
for point in rate_ratio_sweep(scenario, [1.0, 0.8, 0.6, 0.4, 0.2]):
    print(
        f"{point.ratio:8.2f}  {point.welfare_gain_dnem:12.4f}  "
        f"{point.welfare_gain_sign_based:18.4f}"
    )
