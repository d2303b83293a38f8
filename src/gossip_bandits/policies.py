"""The arm-selection algorithms, one object per episode or per lockstep block.

All N players run the same algorithm, so an episode builds one policy
from its validated ``ExperimentConfig``, the only place the knobs are
checked, and reads them from it.  It reads the shared (N, 2S) tally matrix
that the network layer writes: row p holds ``[s_0, f_0, s_1, f_1, ...]``,
the successes and failures of each arm that player p has heard, its own
pulls and its neighbours' reports counted alike.  An arm's count is its
successes plus its failures; no count is stored.  It never writes the
tallies.
They are float64 whole-number counts, float so that the network layer
delivers a turn with a BLAS product over its boolean reach matrix, and
exact below 2**53, so every rule reads the same numbers as from integers.
A learning rule's ``select()`` returns one turn as a row, the (N,) arms:
the sweep's next row, else the one its own step ``choose()`` decides,
working on every player's tally row at once.  Only the random baseline's
``select(limit)`` returns a stretch of turns, a (k, N) array of
``limit`` rows, since its arms read no tally.  The runner sets
``limit``; a policy draws nothing for a turn it does not return.

A lockstep block of B episodes builds one policy over the block's
(B, N, 2S) tallies, in any layout, with ``rng.Streams``, one ``players``
generator per episode: its ``select()`` returns the (B, N) arms of one
turn of every episode, and the random baseline's ``select(limit)`` the
(B, limit, N) stretches.  The arithmetic runs on the (B, N, S) views at
once; only the draws loop over the episodes, each from its own stream,
in the order a lone episode draws.  A draw that only some episodes make
(a tie-break, the exploring players' arms) is made by those episodes
alone, so an episode's choices do not depend on the others in its block.

All players of an episode draw from one generator, the episode's ``players``
substream, and every draw of a turn is one array call over the rows:
the sweep's permutations, the tie-breaks, the exploration coins and arms,
Thompson's posterior draws and asympopt's categorical draws.  Thompson
draws its Beta posteriors as NumPy's ``beta`` does, from gammas, but
with one ``standard_gamma`` call over every arm's pair of shapes: the
same values in the same order, since the sweep leaves no arm at count 0
(see ``ThompsonPolicy``).  Asympopt draws its categorical uniforms and
its exploration coins in one ``random`` call, the values of the two
calls in turn.  A run is reproducible from its seed alone, but a
player's choices depend on the draws of the others.  The annealed ε is
one shared value: every player selects once per turn, so all of theirs
are equal at every turn, and every episode of a block is at the same
turn.  It decays once per ``select`` call, that is once per turn.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import ExperimentConfig
    from .rng import Streams

INIT_ORDERS = ("sequential", "random")


def argmax_rows(values: np.ndarray, rng: np.random.Generator | Streams) -> np.ndarray:
    """Each row's index of its maximum; exact ties are broken uniformly at random.

    ``values`` holds no NaN.  The first maximum of each row comes from one
    ``argmax``, and the last from one ``argmax`` of the reversed rows; where
    they coincide in every row, each row's maximum is unique, that index
    is the answer and nothing is drawn.  Only when some row has several
    maxima, one uniform per entry of its episode ranks the entries equal
    to their row's maximum, and each row takes its best-ranked one.

    ``values`` is one episode's (rows, S) real array with one generator
    ``rng``, or a lockstep block's (B, rows, S) with ``rng.Streams``, one
    generator per episode: only an episode with a tied row draws, from its
    own stream, what it would draw alone.  Any layout is accepted: C- or
    Fortran-ordered, transposed or strided.  It is not written.  The
    result is a (rows,) or (B, rows) array of integer indices.
    """
    best = values.argmax(axis=-1)
    # the reversed rows' argmax is S - 1 minus the last maximum's index
    tied = best + values[..., ::-1].argmax(axis=-1) != values.shape[-1] - 1
    if True in tied.ravel().tolist():  # cheaper than ndarray.any() on a few rows
        streams, scores, rows = (rng, values, best) if values.ndim == 3 else ([rng], values[None], best[None])
        for b in np.flatnonzero(tied.reshape(len(rows), -1).any(axis=1)):  # an episode with a tied row
            top = scores[b] == scores[b].max(axis=1, keepdims=True)
            rows[b] = np.where(top, streams[b].random(top.shape), -1.0).argmax(axis=1)
    return best


@lru_cache(maxsize=None)
def _arange(stop: int) -> np.ndarray:
    """A read-only ``np.arange(stop)``, made once per length."""
    values = np.arange(stop)
    values.flags.writeable = False
    return values


def mix_probabilities(mu: np.ndarray, n_players: int) -> np.ndarray:
    """Closed-form minimizer of the expected per-turn loss over the simplex.

    For each row of means ``mu`` (the last axis runs over arms), returns the
    per-arm pull probabilities that minimize ``sum_i (1 - c_i)^N * mu_i``
    subject to the c_i forming a probability vector.  They equalize
    ``(1 - c_i)^(N-1) * mu_i`` across the active arms, so
    ``c_i = 1 - level * r_i`` with ``r_i = mu_i^(-1/(N-1))`` and
    ``level = (K - 1) / sum(active r)`` for K active arms; every other arm
    carries exactly 0.

    Why the largest prefix level is exact: c_i falls as r_i grows, so the
    active arms are the K with the smallest r.  Sort r ascending into s and
    let ``level_k = (k - 1) / (s_1 + ... + s_k)``, the level of the first k
    arms.  Arm k+1 is positive under ``level_{k+1}`` exactly when
    ``level_{k+1} > level_k``: both say ``k * s_{k+1} < s_1 + ... + s_{k+1}``.
    The left side minus the right grows with k (its step is
    ``(k - 1) * (s_{k+1} - s_k) >= 0``), so the arms that pass form a prefix,
    tied arms pass together, and the levels rise along it and never rise
    again.  The largest level is therefore the prefix's own, every arm past
    the prefix reads ``c <= 0`` under it, and the prefix's arms stay
    positive under the lower level of any larger set: dropping nonpositive
    arms from the full set, which only ever shrinks it, stops exactly there.

    Needs N >= 2 and every mean positive, which the config and the
    policy's ``mean_floor`` clamp guarantee.
    """
    inv_root = mu ** (-1.0 / (n_players - 1))
    s = np.sort(inv_root, axis=-1)
    level = np.maximum.reduce(_arange(s.shape[-1]) / s.cumsum(axis=-1), axis=-1, keepdims=True)
    return np.maximum(1.0 - level * inv_root, 0.0)


class Policy:
    """Every player's selection for one episode or one lockstep block, from the shared tallies.

    ``tallies`` is one episode's (N, 2S) float64 matrix, with the
    episode's one generator ``rng``, or a block's (B, N, 2S), with
    ``rng.Streams``, one generator per episode; any layout is accepted,
    and the policy keeps views of it, never copies.  ``successes`` and
    ``failures`` are (N, S) or (B, N, S) views of the tallies' even and
    odd columns; a rule that needs a count adds them.  A policy
    that sweeps first pulls each arm once before its own rule: in arm
    order, or with ``init_order="random"`` in a permutation per player,
    drawn at construction.  Reports heard during the sweep
    still reach the tallies; they just don't redirect it.  ``sweep`` holds
    the sweep's turns not yet played, a (turns, N) or (turns, B, N) array
    in play order.
    ``select`` plays them one at a time before it calls ``choose()``.
    """

    sweeps_first = True

    def __init__(self, config: ExperimentConfig, tallies: np.ndarray, rng: np.random.Generator):
        self.config = config
        self.epsilon = config.epsilon0
        self.n_arms = n_arms = config.n_arms
        self.successes, self.failures = tallies[..., 0::2], tallies[..., 1::2]
        self.rng = rng
        self.sweep = np.empty((0, *tallies.shape[:-1]), dtype=np.int64)  # sweep turns not yet played
        if self.sweeps_first:
            order = np.tile(np.arange(n_arms), (*tallies.shape[:-1], 1))
            if config.init_order == "random":
                order = rng.permuted(order, axis=-1)
            self.sweep = np.moveaxis(order, -1, 0)

    def select(self) -> np.ndarray:
        """One turn's choices, the (N,) or (B, N) arms; ε decays once per call.

        The sweep's rows come first; only when none is left does
        ``choose()`` decide the turn.
        """
        if len(self.sweep):
            arms, self.sweep = self.sweep[0], self.sweep[1:]
        else:
            arms = self.choose()
        self.epsilon *= self.config.decay
        return arms

    def choose(self) -> np.ndarray:
        """The algorithm's own step after the sweep: one turn's choices, (N,) or (B, N)."""
        raise NotImplementedError

    def explore(self, arms: np.ndarray, coins: np.ndarray | None = None) -> np.ndarray:
        """``arms``, but each player pulls a uniform arm instead with probability ε.

        ``coins`` are the players' uniforms for the toss, drawn here when
        not given.  The uniform arms are drawn only on a turn where some
        player explores, and in a block only by an episode with an
        explorer, from its own stream; ``arms`` is fresh and is written.
        """
        rng, n_players = self.rng, arms.shape[-1]
        exploring = (rng.random(n_players) if coins is None else coins) >= 1.0 - self.epsilon
        if True in exploring.ravel().tolist():  # cheaper than ndarray.any() on a few entries
            streams, flags, rows = (rng, exploring, arms) if arms.ndim == 2 else ([rng], exploring[None], arms[None])
            for b in np.flatnonzero(flags.any(axis=1)):  # an episode with an explorer
                rows[b] = np.where(flags[b], streams[b].integers(self.n_arms, size=n_players), rows[b])
        return arms


class Ucb1Policy(Policy):
    """Upper-confidence-bound selection on all observations seen so far."""

    def choose(self) -> np.ndarray:
        # the sweep's own reports make every count positive from here on
        counts = self.successes + self.failures
        total = counts.sum(axis=-1, keepdims=True)
        index = self.successes / counts + np.sqrt(2.0 * np.log(total) / counts)
        return argmax_rows(index, self.rng)


class EpsilonGreedyPolicy(Policy):
    """Exploit the best observed mean, explore uniformly with decaying odds."""

    def choose(self) -> np.ndarray:
        # unseen arms read mean 0: their successes are 0 too
        means = self.successes / np.maximum(self.successes + self.failures, 1.0)
        return self.explore(argmax_rows(means, self.rng))


class ThompsonPolicy(Policy):
    """Sample a Beta(successes + 1, failures + 1) posterior per arm and pull the best draw.

    The draw is NumPy's own Beta sampler, taken apart: for a > 1 or b > 1,
    ``Generator.beta(a, b)`` draws ``standard_gamma(a)``, then
    ``standard_gamma(b)``, and returns Ga / (Ga + Gb) (Marsaglia & Tsang,
    "A simple method for generating gamma variables", ACM TOMS 2000, for
    shapes >= 1).  So one ``standard_gamma`` call on the (N, S, 2) shapes,
    each arm's pair side by side, draws the same values in the same order
    and leaves the generator where ``beta`` would, while paying NumPy's
    parameter check once per turn instead of twice.  ``beta`` takes another
    branch, Jöhnk's, only when a = b = 1, that is for an arm with count 0,
    and none reaches ``choose``: the sweep pulls every arm once, and a
    player always hears its own report.

    ``outcomes`` is the tallies as an (N, S, 2) or (B, N, S, 2) view,
    C-ordered when the tallies are, each arm's (successes, failures) side
    by side in the order ``standard_gamma`` draws them, so the shapes are
    one add away.  Splitting the last axis in two never needs a copy, so
    the view exists for every layout.  A block draws each episode's
    gammas from its own stream, one call per episode.
    """

    def __init__(self, config: ExperimentConfig, tallies: np.ndarray, rng: np.random.Generator):
        super().__init__(config, tallies, rng)
        # copy=False: a copy would not follow the live tallies
        self.outcomes = tallies.reshape(*tallies.shape[:-1], self.n_arms, 2, copy=False)
        self.shapes = np.empty(self.outcomes.shape)  # (successes + 1, failures + 1) per arm

    def choose(self) -> np.ndarray:
        shapes = np.add(self.outcomes, 1.0, out=self.shapes)
        gamma = self.rng.standard_gamma(shapes)
        ga, gb = gamma[..., 0], gamma[..., 1]
        return argmax_rows(ga / (ga + gb), self.rng)


class AsympOptPolicy(Policy):
    """Anneal from uniform exploration into the closed-form mixing play.

    With probability ``epsilon`` a player pulls a uniform random arm,
    otherwise it samples from the mixing probabilities of its current
    observed means (clamped below at ``mean_floor`` so unseen or all-zero
    arms stay admissible).  No pull-each-arm-once sweep: the initial
    ``epsilon = 1`` plays that role.
    """

    sweeps_first = False

    def choose(self) -> np.ndarray:
        config = self.config
        # unseen arms read mean 0, so they clamp to the floor too
        means = np.maximum(self.successes / np.maximum(self.successes + self.failures, 1.0), config.mean_floor)
        cdf = mix_probabilities(means, config.n_players).cumsum(axis=-1)
        # scaled to the row's total, a uniform stays below its last cumulative
        # mass, and the first arm whose mass exceeds it has positive probability;
        # cdf never decreases along a row, so the masses at or below the draw
        # are a prefix, and that first index equals their count
        # the draw's uniforms, then explore's coins: one call draws both, in that order
        uniforms = self.rng.random(2 * config.n_players)
        draw = uniforms[..., :config.n_players] * cdf[..., -1]
        return self.explore((cdf > draw[..., None]).argmax(axis=-1), uniforms[..., config.n_players:])


class UniformRandomPolicy(Policy):
    """Calibration baseline: every turn an independent uniform arm per player.

    The arms do not depend on the tallies, so it is the one policy played
    in stretches: ``select(limit)`` draws a (limit, N) stretch of turns in
    one ``integers(S, size=(limit, N))`` call, or a block's (B, limit, N),
    one such call per episode: one call
    per turn cost about 9.5 µs (NumPy 2.4.6), nearly all of it call
    overhead.  The rows are the per-turn draws, in order, and the stream
    ends where one call per turn leaves it: NumPy draws each bounded
    integer from the bit generator's next 32-bit output, with its own
    rejection, in row-major order, and PCG64 keeps the spare half of a
    64-bit output in the bit generator, not in the call.  It has no
    sweep, so ``init_order="random"`` draws nothing at construction, and
    it never reads ε.
    """

    sweeps_first = False

    def select(self, limit: int) -> np.ndarray:
        return self.rng.integers(self.n_arms, size=(limit, self.config.n_players))


_KINDS = {
    "ucb1": Ucb1Policy,
    "egreedy": EpsilonGreedyPolicy,
    "thompson": ThompsonPolicy,
    "asympopt": AsympOptPolicy,
    "random": UniformRandomPolicy,
}
POLICY_NAMES = tuple(_KINDS)


def make_policy(config: ExperimentConfig, tallies: np.ndarray, rng: np.random.Generator) -> Policy:
    """The episode's policy for ``config.algorithm``, over the whole tally matrix.

    ``rng`` is the players' one substream; ``config`` has been validated.
    """
    return _KINDS[config.algorithm](config, tallies, rng)
