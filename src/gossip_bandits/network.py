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

Reports land in one shared (N, 2S) tally matrix: its left half counts
every (arm) report a player has heard, its right half the successes among
them.  A turn's delivery is the product ``reach.T @ reports``, where row j
of ``reports`` is player j's one-hot arm followed by the same one-hot
times the reward it received.  Duplicate reports (two neighbours on one
arm) are kept, and a collision loser reports its 0.  ``disseminate``
delivers a stretch of k turns at once, as one product of the (N, k·N)
transpose of all its turns' (k·N, N) sender rows with their (k·N, 2S)
reports: the sum of the turns' products.  A drawn block is gathered
turn-fastest, so a stretch's (k·N, N) reshape is a copy; a one-turn
slice reshapes to a strided view.  When one graph G holds for every turn
of a stretch, a reach view of turn stride 0, the sum is
Σₜ Gᵀ Rₜ = Gᵀ Σₜ Rₜ: the players' report rows are summed over the
stretch and delivered in one (N, N) product.  ``stretch_turns`` sizes a
block's stretches by what that path builds: a drawn block's by
``STRETCH_BYTES`` of report rows, a constant graph's, which builds none,
by ``STRETCH_BYTES`` of its turns' collision and index arrays.

The tallies are float64 whole-number counts, and so are a one-turn
stretch's report rows, because NumPy computes a floating-point product
through BLAS but an integer one in its generic loop, several times
slower at N=20.  A longer stretch takes its report rows from the float32
table, so that its product runs as the cheaper sgemm: every entry of
that product is a whole count of at most k·N, which ``STRETCH_BYTES``
bounds at 2**18 / (16·S) <= 2**13, far below float32's 2**24, and the
product is added into the float64 tallies.  A constant graph's summed
report rows are counts of at most k, and its product's entries of at
most k·N, which its cap bounds at 2**18 / 40 < 2**13; whatever the cap,
a stretch never crosses a block and N < S, so k·N < block·S <= 2**17,
as a block's arm uniforms fit in ``runner.BLOCK_BYTES``.  Both are exact
in float32 too.  A one-turn
stretch stays float64, since the float32 result's cast into the tallies
would cost each learning rule's turn more than the smaller product
saves.  Every count is exact, since no tally of an episode comes near
2**53, so adding a stretch in one sum gives the same tallies as adding
its turns one by one.  The reach matrices stay boolean, one byte per
entry, drawn a block of turns at a time; a float64 copy of a block's
would take eight times as much.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Bytes one stretch's per-turn arrays may take, about 256 KiB.  A drawn block's
# stretch builds (N, 2S) float64 report rows per turn: 32 turns at N=20, S=25,
# and k·N <= 2**18 / (16·S) <= 2**13 reports, so its float32 product is exact.
# A constant graph's builds no report rows, only (S + 5N) int64 or float64
# values per turn: 262 turns at N=20, S=25, and k·N <= 2**18 / 40 < 2**13.
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


@lru_cache(maxsize=None)
def _reach_columns(n_players: int) -> np.ndarray:
    """(N, N) column of each reach entry in a turn's row of edges plus one all-True column.

    Pair k, ``(first[k], second[k])`` in ``itertools.combinations`` order,
    is column k for both of its entries; the diagonal reads the last
    column, N(N-1)/2.
    """
    first, second = np.triu_indices(n_players, k=1)
    columns = np.full((n_players, n_players), len(first))
    columns[first, second] = columns[second, first] = np.arange(len(first))
    columns.flags.writeable = False
    return columns


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
    A drawn reach block is one gather of ``_reach_columns`` from the
    block's edges, so no (turns, N, N) temporary is made; the gather
    leaves the block turn-fastest, strides (1, N·turns, turns).
    """
    # n_players comes from the validated config; run_episode takes alpha on its own
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"connectivity {alpha} outside [0, 1]")
    pairs = n_players * (n_players - 1) // 2
    if alpha == 0.0 or alpha == 1.0:
        rng.bit_generator.advance(n_turns * pairs)
        graph = np.ones((n_players, n_players), dtype=bool) if alpha == 1.0 else np.eye(n_players, dtype=bool)
        return np.broadcast_to(graph, (n_turns, n_players, n_players))
    edges = np.ones((n_turns, pairs + 1), dtype=bool)  # the last column is every player's own
    np.less(rng.random((n_turns, pairs)), alpha, out=edges[:, :pairs])
    return edges[:, _reach_columns(n_players)]


@lru_cache(maxsize=None)
def _report_rows(n_arms: int, dtype: type = np.float64) -> np.ndarray:
    """(arm, reward) -> one report row: one-hot arm, then one-hot times reward."""
    rows = np.zeros((n_arms, 2, 2 * n_arms), dtype=dtype)
    arms = np.arange(n_arms)
    rows[arms, :, arms] = 1
    rows[arms, 1, n_arms + arms] = 1
    rows.flags.writeable = False
    return rows


def disseminate(
    tallies: np.ndarray,
    reach: np.ndarray,
    choices: np.ndarray,
    realized: np.ndarray,
) -> None:
    """Add every (arm, reward) report of a stretch to the float64 tallies of all it reaches.

    ``reach`` holds the stretch's (k, N, N) matrices in sender rows:
    ``reach[t, j, i]`` is true when player j's report of turn t reaches
    player i.  ``choices`` and ``realized`` hold its (k, N) arms and
    rewards; ``realized`` may be 0/1 integers or ``env_step``'s booleans.
    The product's (N, k·N) operand is the transpose of the (k·N, N) sender
    rows, in the order of the (k·N, 2S) report rows.  For a drawn block
    that reshape copies the stretch (the block is turn-fastest); a
    one-turn slice, or one turn of a constant graph, reshapes to a view.
    A stretch of k > 1 turns takes its report rows with one ``np.take``
    from the float32 table's flat (2S, 2S) rows, row ``2·arm + reward``,
    and is added through a float32 product, exact while k·N stays below
    2**24; the runner's cap of ``stretch_turns`` turns keeps it at most
    2**13 on either path, and a stretch within a block keeps it below
    2**17.  When ``reach`` has turn stride 0, as ``sample_reach`` returns
    at ``alpha`` 0 or 1, one graph G holds for every turn, and the
    stretch is delivered as Gᵀ Σₜ Rₜ.  One ``np.bincount`` counts how
    often each player sent each row of the flat table; those (N, 2S)
    counts times the table are the players' summed report rows, entries
    of at most k, and one (N, N) product delivers them, entries of at
    most k·N, so both products are exact in float32.  A one-turn
    stretch indexes the float64 table by (arm, reward), which costs less
    than a take at k = 1.
    """
    n_players, width = tallies.shape
    if len(choices) == 1:
        # the rewards index the row table, never mask it: booleans become 0/1
        reports = _report_rows(width // 2)[choices, realized.astype(np.intp, copy=False)]
    else:
        flat = _report_rows(width // 2, np.float32).reshape(width, width)  # row 2·arm + reward
        rows = 2 * choices + realized
        if _one_graph(reach):  # deliver the players' summed rows once
            counts = np.bincount((rows + np.arange(0, n_players * width, width)).ravel(),
                                 minlength=n_players * width)
            reports = np.dot(counts.reshape(n_players, width).astype(np.float32), flat)
            reach = reach[:1]
        else:
            reports = np.take(flat, rows, axis=0)
    # np.dot, not @: for a boolean and a floating-point operand it is the cheaper call
    tallies += np.dot(reach.reshape(-1, n_players).T, reports.reshape(-1, width))
