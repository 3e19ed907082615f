"""Seeded generator for the `race` program family.

Three writers each buffer two nonzero writes to `x` and then terminate. A
reader rereads `x` until it is nonzero; WIN is visited iff the first nonzero
value it reads equals its target. The shape is fixed: the seed picks only the
written values, the scheduling weights in {1, 2, 3} and the target, so every
seed explores the same number of configurations and only the probabilities
change. The target is always one of the written values and some written
value differs from it, so 0 < P(WIN) < 1.
"""

from __future__ import annotations

import random

WRITERS = 3
VALUES = (1, 2, 3)
WEIGHTS = (1, 2, 3)
READER_WEIGHT = 2


def race_params(seed):
    """(writes, weights, target) for `seed`: writes[i] is writer i's pair.

    Writer i writes values (v[i], v[i+1 mod 3]) for a seeded permutation v
    of VALUES. The pattern is invariant under rotating the writers, so
    every permutation and target yields an isomorphic transition graph.
    """
    rng = random.Random(f"race:{seed}")
    vals = list(VALUES)
    rng.shuffle(vals)
    writes = [(vals[i], vals[(i + 1) % WRITERS]) for i in range(WRITERS)]
    weights = list(WEIGHTS)
    rng.shuffle(weights)
    weights.append(READER_WEIGHT)
    return writes, weights, rng.choice(VALUES)


def race_program(seed):
    """Program text of the race instance for `seed`."""
    writes, weights, target = race_params(seed)
    lines = [f"# race family, seed {seed}: writes {writes}, weights {weights}, "
             f"target {target}",
             "domain 4", "vars x"]
    for i, ((v1, v2), w) in enumerate(zip(writes, weights)):
        lines += [f"proc W{i} weight {w}", f"regs a{i} b{i}",
                  f"W{i}A: a{i} := {v1}", f"W{i}B: b{i} := {v2}",
                  f"W{i}C: x := a{i}", f"W{i}D: x := b{i}", f"W{i}T: term"]
    lines += [f"proc R weight {weights[-1]}", "regs one t r e",
              "R0: one := 1", f"R1: t := {target}",
              "R2: r := x", "R3: if r then DEC", "R4: if one then R2",
              "DEC: e := r == t", "D2: if e then WIN", "D3: if one then END",
              "WIN: e := r", "END: term"]
    return "\n".join(lines) + "\n"
