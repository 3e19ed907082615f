"""Reference Monte Carlo step: the letter-by-letter sampler, with no tables.

An independent oracle for `montecarlo.RunSampler`. It shares no code with
the step tables: every step recomputes the enabled processes, the process
step and the update word from the configuration itself, drawing the word one
letter at a time from exact word counts.
"""

import itertools

from ptso_verify import semantics


class LetterSampler:
    def __init__(self, prog):
        self.prog = prog
        self._w_memo = {}

    def total_words(self, caps):
        """Number of feasible update words for per-process pop capacities."""
        key = tuple(sorted(caps))
        got = self._w_memo.get(key)
        if got is None:
            got = sum(semantics.update_word_counts_by_length(key).values())
            self._w_memo[key] = got
        return got

    def sample_word(self, caps, rng):
        """A uniform draw over all feasible update words: each step stops with
        probability 1/W(caps) and otherwise starts with letter p with
        probability W(caps - e_p)/W(caps)."""
        caps = list(caps)
        word = []
        while True:
            r = rng.randrange(self.total_words(tuple(caps)))
            if r == 0:
                return word
            r -= 1
            for pi, cap in enumerate(caps):
                if not cap:
                    continue
                caps[pi] -= 1
                w = self.total_words(tuple(caps))
                if r < w:
                    word.append(pi)
                    break
                caps[pi] += 1
                r -= w
            else:
                raise AssertionError("word sampling fell off the capacity table")

    def step(self, c, rng):
        """One full chain step: (process index or None, word, successor)."""
        enabled = semantics.enabled_indices(self.prog, c)
        cum = list(itertools.accumulate(self.prog.processes[pi].weight for pi in enabled))
        if not cum:
            pi, mid = None, c
        else:
            r = rng.randrange(cum[-1])
            k = 0
            while cum[k] <= r:
                k += 1
            pi = enabled[k]
            mid = semantics.process_step(self.prog, c, pi)
        word = tuple(self.sample_word([len(b) for b in mid.bufs], rng))
        if not word:
            return pi, (), mid
        return pi, word, semantics.apply_schedule(self.prog, mid, word)
