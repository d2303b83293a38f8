"""Per-turn random communication graphs and report delivery.

Every turn a fresh undirected graph connects each of the N(N-1)/2 player
pairs independently with probability ``alpha``.  A turn's graph is held
as its boolean reach matrix: the symmetric adjacency plus the identity,
so a player always hears its own report.  The engine reads a reach
matrix in sender rows: ``reach[j, i]`` is true when player j's report
reaches player i.  The matrices it draws are symmetric, so the
convention shows only on a one-way matrix built by hand.

At ``alpha`` 0 or 1 a turn's uniforms decide no edge, since ``random()``
lies in [0, 1): G(N, 0) is always empty and G(N, 1) always complete
(Erdős & Rényi, "On random graphs I", 1959).  ``sample_reach`` then
returns the one reach matrix, the identity or all True, broadcast over
the turns as a read-only view with turn stride 0, and jumps the graph
stream over the uniforms it would have drawn.  PCG64 takes one 64-bit
output per float64 uniform and jumps ahead in O(log n) steps, so the
stream ends in the state the draw leaves it in (O'Neill, "PCG: A Family
of Simple Fast Space-Efficient Statistically Good Algorithms for Random
Number Generation", 2014).

Reports land in an episode's one shared (N, 2S) tally matrix: row p holds
``[s_0, f_0, s_1, f_1, ...]``, the successes and failures of each arm
that player p has heard, so a report adds exactly one 1, at column
2·arm for a success and 2·arm + 1 for a failure.  No count is stored:
an arm's count is its successes plus its failures.  A turn's delivery
is the product ``reach.T @ reports``, where row j of ``reports`` is
player j's report as that one-hot row.  Duplicate reports (two
neighbours on one arm) are kept, and a collision loser reports its 0.
``disseminate`` delivers a row turn, a learning rule's, as one product
of its (N, N) reach's transpose with its (N, 2S) reports, and a stretch
of k turns, the random policy's, at once, as one product of the
(N, k·N) transpose of all its turns' (k·N, N) sender rows with their
(k·N, 2S) reports: the sum of the turns' products.  One turn of a
lockstep block of B episodes is delivered as one batched ``np.matmul``
of its (B, N, N) reach transposes with its (B, N, 2S) reports, each
episode's reports to its own row of the (B, N, 2S) tallies.  A drawn
block is C-ordered, so a row's reach and a stretch's sender rows are
views of it.
When one graph G holds for every turn of a stretch, a reach view of turn
stride 0, the sum is Σₜ Gᵀ Rₜ = Gᵀ Σₜ Rₜ: the players' report rows are
summed over the stretch and delivered in one (N, N) product.
``stretch_turns`` bounds a stretch's working set by what its path
builds: a drawn block's stretch by ``STRETCH_BYTES`` of report rows, a
constant graph's, which builds none, by ``STRETCH_BYTES`` of its turns'
collision and index arrays.

The tallies, the report rows and every product are float64 whole-number
counts, exact below 2**53, far above any count an episode reaches, so
adding a stretch in one sum gives the same tallies as adding its turns
one by one.  They are floating point, not integers, because NumPy
computes a floating-point product through BLAS but an integer one in its
generic loop, several times slower at N=20.  The reach matrices stay
boolean, one byte per entry, drawn a block of turns at a time; a float64
copy of a block's would take eight times as much.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Bytes one stretch's per-turn arrays may take, about 256 KiB: a drawn block's
# (N, 2S) float64 report rows, 32 turns at N=20, S=25, or a constant graph's
# (S + 5N) int64 or float64 collision and index values, 262 turns.
STRETCH_BYTES = 1 << 18


def _one_graph(reach: np.ndarray) -> bool:
    """Whether every turn of ``reach`` is one graph: a view of turn stride 0, as at ``alpha`` 0 or 1."""
    return reach.strides[0] == 0


def stretch_turns(reach: np.ndarray, n_arms: int) -> int:
    """Turns in one stretch of the (turns, N, N) block ``reach``, at least one.

    A drawn block's stretch holds ``STRETCH_BYTES`` of (N, 2S) float64
    report rows.  A constant graph's stretch builds none: it holds
    ``STRETCH_BYTES`` of what its turns do build, S float64 collision
    maxima and 5N int64 or float64 values per turn (``env_step``'s keys,
    sorted arms and priorities, the policy's arms and ``disseminate``'s
    ``bincount`` indices).
    """
    n_players = reach.shape[-1]
    per_turn = 8 * (n_arms + 5 * n_players) if _one_graph(reach) else 16 * n_players * n_arms
    return max(1, STRETCH_BYTES // per_turn)


def sample_reach(
    n_players: int, alpha: float, n_turns: int, rng: np.random.Generator
) -> np.ndarray:
    """(turns, N, N) reach matrices of ``n_turns`` independent graphs.

    Consumes N(N-1)/2 uniforms per turn, pairs in ``itertools.combinations``
    order, so the stream holds the same values whatever ``alpha`` is, and
    consecutive blocks of turns draw the same graphs as one draw of all.
    At ``alpha`` 0 or 1 no uniform decides an edge, since ``random()``
    lies in [0, 1): every turn's matrix is the identity (0) or all True
    (1), returned as one (N, N) matrix broadcast over the turns, a
    read-only view with turn stride 0, and the uniforms are jumped over,
    not drawn.  The jump is exact: ``Generator.random``
    takes one 64-bit output of its PCG64 bit generator per float64, and
    ``advance`` moves PCG64 that many outputs ahead, so ``rng`` ends in
    the state the draw would leave it in.  ``advance`` also drops a
    buffered half of a 32-bit draw; the graph substream never holds one,
    since it draws nothing but float64 uniforms.
    A drawn block is a new C-ordered bool array, gathered from each turn's
    edges and a column of True, every player's own report, through the
    cached table ``_pair_columns``.
    """
    # n_players comes from the validated config; run_episode takes the alphas on their own
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"connectivity {alpha} outside [0, 1]")
    pairs = n_players * (n_players - 1) // 2
    if alpha == 0.0 or alpha == 1.0:
        rng.bit_generator.advance(n_turns * pairs)
        graph = np.ones((n_players, n_players), dtype=bool) if alpha == 1.0 else np.eye(n_players, dtype=bool)
        return np.broadcast_to(graph, (n_turns, n_players, n_players))
    edges = np.ones((n_turns, pairs + 1), dtype=bool)  # the last column stays True for every self-report
    edges[:, :pairs] = rng.random((n_turns, pairs)) < alpha
    return np.take(edges, _pair_columns(n_players), axis=1)


@lru_cache(maxsize=None)
def _pair_columns(n_players: int) -> np.ndarray:
    """Read-only (N, N) table: entry (i, j) is the column of pair {i, j} among a turn's edges.

    Pairs are numbered in ``itertools.combinations`` order, and the
    diagonal reads column N(N-1)/2, one past the last pair.
    """
    pairs = n_players * (n_players - 1) // 2
    columns = np.full((n_players, n_players), pairs, dtype=np.intp)
    first, second = np.triu_indices(n_players, k=1)
    columns[first, second] = columns[second, first] = np.arange(pairs)
    columns.flags.writeable = False
    return columns


@lru_cache(maxsize=None)
def _report_rows(n_arms: int) -> np.ndarray:
    """Read-only (S, 2, 2S) table: ``[arm, reward]`` is that report's one-hot float64 row.

    A success, reward 1, sets column 2·arm and a failure column 2·arm + 1.
    """
    rows = np.ascontiguousarray(np.eye(2 * n_arms).reshape(n_arms, 2, 2 * n_arms)[:, ::-1])
    rows.flags.writeable = False
    return rows


def disseminate(
    tallies: np.ndarray,
    reach: np.ndarray,
    choices: np.ndarray,
    realized: np.ndarray,
) -> None:
    """Add every (arm, reward) report of a row turn, a stretch or a block turn to the tallies of all it reaches.

    ``tallies`` is the (N, 2S) float64 matrix, added to in place: a
    report adds one to its arm's success or to its failure.
    A row turn gives its (N, N) boolean or 0/1 reach matrix, its (N,)
    integer arms and its (N,) rewards; a stretch of k turns its (k, N, N)
    matrices, (k, N) arms and (k, N) rewards.  One turn of a lockstep
    block of B episodes gives the block's (B, N, 2S) float64 tallies with
    its (B, N, N) reach, (B, N) arms and (B, N) rewards, row b episode b's,
    and each episode's reports reach only its own tallies, in one batched
    ``np.matmul``; it never takes the constant-graph path, even when
    ``reach`` has stride 0.  Reach is read in sender
    rows: ``reach[..., j, i]`` is true when player j's report reaches
    player i.  The rewards are 0/1 integers or ``env_step``'s booleans,
    which are converted to integers once: a reward indexes the
    report-row table and never masks it.  Any layout is accepted, of every
    operand, the tallies too, strided and transposed views included; the
    reshapes to (k·N, N) sender rows
    and (k·N, 2S) report rows copy an operand that is not C-ordered.
    When a stretch's ``reach`` has turn stride 0, as ``sample_reach``
    returns at ``alpha`` 0 or 1, one graph G holds for every turn and the
    stretch is delivered as Gᵀ Σₜ Rₜ: one ``np.bincount`` counts how
    often each player sent each row ``2·arm + reward`` of the table's
    flat (2S, 2S) view, and those (N, 2S) counts times the table are the
    players' summed report rows.  Every other stretch, and every row
    turn whatever the strides of its (N, N) reach, takes its report rows
    from the table by (arm, reward), which costs less than a ``bincount``
    for one turn.
    """
    n_players, width = tallies.shape[-2:]
    table = _report_rows(width // 2)
    realized = realized.astype(np.intp, copy=False)  # the rewards index the row table, never mask it
    if tallies.ndim == choices.ndim == 2 and _one_graph(reach):  # deliver the players' summed rows once
        sent = 2 * choices + realized + np.arange(0, n_players * width, width)
        counts = np.bincount(sent.ravel(), minlength=n_players * width)
        reports = np.dot(counts.reshape(n_players, width), table.reshape(width, width))
        reach = reach[:1]
    else:
        reports = table[choices, realized]
    # np.dot, not @: for a boolean and a floating-point operand it is the cheaper call; a
    # block turn's (B, N, N) reach delivers each episode's reports to its own tallies
    tallies += np.dot(reach.reshape(-1, n_players).T, reports.reshape(-1, width)) if tallies.ndim == 2 \
        else np.matmul(reach.swapaxes(1, 2), reports)
