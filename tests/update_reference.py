"""Reference update-step enumerator: every feasible word, one letter at a time.

`semantics.update_successors` counts the same words on the lattice of
pop-count vectors; its `(row, total)` must equal `enumerate_updates`'s, entry
order and first words included. This walks every word, so keep the buffers small.
"""

import itertools


def _interleavings(ks):
    """Distinct words with ks[p] letters p, lexicographically."""
    counts = list(ks)
    n = sum(ks)
    word = []

    def rec():
        if len(word) == n:
            yield tuple(word)
            return
        for p, k in enumerate(counts):
            if k:
                counts[p] -= 1
                word.append(p)
                yield from rec()
                word.pop()
                counts[p] += 1

    yield from rec()


def enumerate_updates(prog, bufs, mem):
    """Walk every feasible update word from (bufs, mem): suffix-length tuples
    in product order, then distinct interleavings lexicographically.

    Returns (row, total): row maps each successor (bufs, mem) to
    [number of words reaching it, first such word as process indices].
    """
    vix = prog.tables["var_index"]
    nprocs = len(bufs)
    row = {}
    total = 0
    # Oldest-first pop streams per process.
    streams = [tuple(reversed(b)) for b in bufs]
    for ks in itertools.product(*[range(len(b) + 1) for b in bufs]):
        succ_bufs = tuple(b[: len(b) - k] if k else b for b, k in zip(bufs, ks))
        for word in _interleavings(ks):
            total += 1
            m = list(mem)
            taken = [0] * nprocs
            for pi in word:
                x, v = streams[pi][taken[pi]]
                taken[pi] += 1
                m[vix[x]] = v
            key = (succ_bufs, tuple(m))
            entry = row.get(key)
            if entry is None:
                row[key] = [1, word]
            else:
                entry[0] += 1
    return row, total
