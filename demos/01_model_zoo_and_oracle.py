"""Tour of the model zoo: every scorer against the brute-force reference.

Builds one small randomly initialized model of each kind, scores a random
instance with the fast factorized path, and checks the result against a
literal sum over all materialized interaction-tensor entries. Also shows the
pair-matrix factorization trick: a dense field-weighted model converted to
its low-rank form (``tensorfm`` of order 2, which is what the
``fwfm-lowrank`` alias builds) scores identically at full rank.
"""

import numpy as np

import tensorfm as tfm


def main():
    rng = np.random.default_rng(0)
    schema = tfm.build_schema([4, 3, 5, 2, 4])
    inst = tfm.Instance(
        active=np.array([rng.integers(0, c) for c in schema.cardinalities]),
        values=np.array([1.0, 1.0, 2.5, 1.0, 0.5]),  # two numeric multipliers
        label=1,
    )

    print(f"schema: {schema.n} fields, {schema.m} features")
    print(f"instance: active={inst.active.tolist()} values={inst.values.tolist()}\n")

    zoo = [
        ("lr", {}),
        ("fm", {}),
        ("fwfm", {}),
        ("fwfm-lowrank", dict(r_vec=2)),
        ("hofm", dict(d=3)),
        ("tensorfm", dict(d=3, r_vec=2)),
        ("tensorfm-tucker", dict(d=3, r_vec=2)),
    ]
    print(f"{'kind':16s} {'params':>7s} {'fast score':>12s} {'brute force':>12s}")
    for kind, kw in zoo:
        bundle = tfm.init(kind, schema, k=4, init_scale=0.4, seed=7, **kw)
        bundle.blocks["linear.w"][:] = rng.normal(size=schema.m) * 0.2
        bundle.blocks["linear.b"][:] = 0.1
        fast = tfm.score(bundle, inst)
        slow = tfm.score_naive_oracle(bundle, inst)
        assert abs(fast - slow) < 1e-9 * max(1.0, abs(fast))
        print(f"{kind:16s} {tfm.param_count(bundle):7d} {fast:12.6f} {slow:12.6f}")

    print("\npair-matrix factorization round trip:")
    dense = tfm.init("fwfm", schema, k=4, init_scale=0.5, seed=3)
    low = tfm.fwfm_lowrank_from_dense(dense)
    a = tfm.interaction_term(dense, inst)
    b = tfm.interaction_term(low, inst)
    print(f"  dense pair term {a:.10f}")
    print(f"  factored ({low.kind}, d={low.d}, rank {low.r_vec[0]}) {b:.10f}")

    print("\ngradient spot check (central finite differences):")
    bundle = tfm.init("tensorfm", schema, k=3, d=3, r_vec=2, init_scale=0.4, seed=1)
    grads = tfm.backward(bundle, inst, upstream=1.0)
    u = bundle.blocks["cp.3.factor.0"]
    h = 1e-5
    u[2, 1] += h
    up = tfm.score(bundle, inst)
    u[2, 1] -= 2 * h
    down = tfm.score(bundle, inst)
    u[2, 1] += h
    print(f"  analytic  {grads['cp.3.factor.0'][2, 1]:+.10f}")
    print(f"  numeric   {(up - down) / (2 * h):+.10f}")


if __name__ == "__main__":
    main()
