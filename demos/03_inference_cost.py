"""Inference cost: operation counts and measured latency versus field count.

The pair-weighted model pays a quadratic price in the number of fields; the
low-rank tensor models stay linear while still covering higher orders. The
first table is an exact closed-form operation count (machine-independent),
the second a wall-clock measurement on a 100-field dataset.
"""

import numpy as np

import tensorfm as tfm


def flops_table():
    kinds = [
        ("lr", {}),
        ("fm", {}),
        ("hofm d=3", dict(d=3)),
        ("tensorfm(3,3)", dict(d=3, r_vec=3)),
        ("fwfm", {}),
    ]
    ns = [20, 50, 100, 200]
    print("forward-pass scalar operations, k = 8:")
    print(f"{'model':16s}" + "".join(f"  n={n:<7d}" for n in ns))
    for label, kw in kinds:
        kind = label.split()[0].split("(")[0]
        row = [tfm.flops_estimate(kind, n, k=8, **kw).flops for n in ns]
        print(f"{label:16s}" + "".join(f"  {v:<9d}" for v in row))

    for kind, kw in [("tensorfm", dict(d=3, r_vec=3)), ("fwfm", {})]:
        ns_fit = np.arange(20, 201, 20)
        flops = [tfm.flops_estimate(kind, int(n), k=8, **kw).flops for n in ns_fit]
        slope = np.polyfit(np.log(ns_fit), np.log(flops), 1)[0]
        print(f"log-log slope for {kind}: {slope:.3f}")


def latency_table():
    spec = tfm.SyntheticSpec(n_signal=4, cardinality=10, order=2, n_noise=96, n_samples=20_000, seed=3)
    data = tfm.generate_synthetic(spec)
    print(f"\nmeasured latency on {len(data)} instances with {data.schema.n} fields (median of 5):")
    for label, kind, kw in [
        ("tensorfm(1,2)", "tensorfm", dict(d=2, r_vec=1)),
        ("tensorfm(4,3)", "tensorfm", dict(d=3, r_vec=4)),
        ("hofm d=3", "hofm", dict(d=3)),
        ("fwfm", "fwfm", {}),
    ]:
        bundle = tfm.init(kind, data.schema, k=8, seed=0, **kw)
        rep = tfm.time_inference(bundle, data, repeats=5)
        print(f"  {label:16s} {rep.seconds_per_instance * 1e6:8.2f} us/instance")


if __name__ == "__main__":
    flops_table()
    latency_table()
