"""Walk the community price through its zones as renewables grow.

A tiny community with one flexible device illustrates the threshold
structure: below the buy-rate response the utility's buy rate is passed
through, above the sell-rate response the sell rate, and in between the
price is solved so that demand exactly absorbs the generation.  Adding a
battery splits the middle band into five sub-zones around the salvage value.
"""

import numpy as np

from dnem import (
    AggregateResponseCurve,
    BessSpec,
    DeviceUtility,
    dnem_price,
    generalized_dnem_price,
)

curve = AggregateResponseCurve([DeviceUtility(alpha=2.0, beta=1.0, d_min=0.0, d_max=2.0)])
buy, sell = 0.40, 0.20

# the zone thresholds are the curve's response at the two rates
print(f"buy-rate response  f({buy}) = {curve.response(buy):.3f} kWh")
print(f"sell-rate response f({sell}) = {curve.response(sell):.3f} kWh")
print()

print("--- price without storage ---")
print(f"{'g_N':>6}  {'price':>7}  zone")
for g in np.arange(0.0, 2.81, 0.2):
    price = dnem_price(curve, float(g), buy, sell)
    print(f"{g:6.2f}  {price.value:7.4f}  {price.zone.value}")

# a battery at half charge: its effective power limits shift the pass-through
# thresholds outward and pin the price to the salvage value while the battery
# follows the generation
spec = BessSpec(
    capacity=2.0, charge_eff=0.95, discharge_eff=0.95,
    max_charge=0.5, max_discharge=0.5, initial_soc=1.0,
)
salvage = 0.30

print()
print("--- price with storage (salvage rate 0.30, SoC 1.0/2.0) ---")
print(f"{'g_N':>6}  {'price':>7}  {'dispatch':>9}  zone")
for g in np.arange(0.0, 3.41, 0.2):
    price, b = generalized_dnem_price(curve, float(g), spec, 1.0, salvage, buy, sell)
    print(f"{g:6.2f}  {price.value:7.4f}  {b:9.4f}  {price.zone.value}")
