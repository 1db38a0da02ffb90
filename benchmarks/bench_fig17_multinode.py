"""Fig. 17 — multi-node Gather: two-level vs flat on 2/4/8 KNL nodes.

Shape criteria (paper Section VII-G): the two-level design wins at every
node count, and — the counter-intuitive result — the improvement *grows*
with node count (paper: 2x/3x/5x); the pipelined extension improves on
plain two-level.
"""


def _check_shapes(exp):
    mids = {}
    for nodes, grid in exp.data["model"].items():
        for eta, pt in grid.items():
            assert pt["two_level"] < pt["flat"], (nodes, eta)
            assert pt["pipelined"] < pt["two_level"] * 1.01, (nodes, eta)
        mids[nodes] = grid[64 * 1024]["speedup"]
    # the paper's counter-intuitive trend, at the paper's message scale
    assert mids[2] < mids[4] < mids[8]
    assert mids[2] > 1.3
    assert mids[8] > 2.5
    # the discrete-event cluster shows the same monotone trend with real,
    # verified byte movement (smaller magnitudes: same intra design on
    # both sides isolates the fabric effect)
    sim = exp.data["sim_speedups"]
    assert sim[2] < sim[4] < sim[8]
    assert sim[8] > 1.1


def bench_fig17_multinode(regen):
    _check_shapes(regen("fig17"))
