"""
Key rate versus transmission loss
=================================

The headline curves: asymptotic key rate against total loss for several
side-channel weights eps, with perfect and with flawed modulation. Each
curve ends at a positive-rate cutoff; larger eps pulls the cutoff in,
while modulation errors barely move it. Also writes the perfect-
modulation table to rate_vs_loss.csv in the deterministic CSV format.
"""

from mdiqkd import ChannelParams, LossRange, SweepConfig, loss_table

config = SweepConfig(
    channel=ChannelParams(eta_d=0.145, p_d=6.02e-6, e_d=0.015),
    eps_values=(0.0, 1e-8, 1e-7, 1e-6),
    delta_values=(0.0, 0.126),
    loss_range=LossRange(0.0, 12.0, 0.1),
)
table = loss_table(config)
points = table.rows()

marks = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
print("key rate per announced ZZ pair:")
print(f"  {'eps':>8} {'delta':>6} " + " ".join(f"{m:>9} dB" for m in marks))
for eps in config.eps_values:
    for delta in config.delta_values:
        row = {
            p.coordinate: p.key_rate
            for p in points
            if p.eps == eps and p.delta == delta
        }
        cells = " ".join(f"{row[m]:>12.3e}" for m in marks)
        print(f"  {eps:>8} {delta:>6} {cells}")

print("\npositive-rate cutoffs (largest loss with R > 0 on a 0.1 dB grid):")
edge = config.loss_range.stop
for s in table.summaries():
    if s["cutoff"] is None:
        cutoff = "none"
    elif s["cutoff"] >= edge - 1e-9:
        cutoff = f"beyond the {edge:.0f} dB grid"
    else:
        cutoff = f"{s['cutoff']:.1f} dB"
    print(f"  eps = {s['eps']:<7} delta = {s['delta']:<6} cutoff = {cutoff}")

perfect = table.select([p.delta == 0.0 for p in points])
perfect.write("rate_vs_loss.csv", "csv", summary=perfect.summaries())
print("\nwrote rate_vs_loss.csv")
