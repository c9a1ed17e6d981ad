"""Minor embedding of logical QUBOs onto hardware graphs.

This reproduces the "physical mapping" step of Trummer & Koch [20]: each
logical variable becomes a *chain* of physical qubits held together by a
strong ferromagnetic coupling, placed so that every logical interaction has
at least one physical coupler between the two chains.

The embedding heuristic is a compact variant of Cai-Macready-Roy greedy
chain growth: logical nodes are placed in decreasing-degree order; each new
node claims a free physical node and grows a chain along shortest paths to
touch every already-placed neighbour chain.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.exceptions import EmbeddingError
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import SampleSet
from repro.utils.rngtools import ensure_rng

Embedding = dict[int, list[int]]


def find_embedding(
    source: nx.Graph,
    target: nx.Graph,
    rng=None,
    tries: int = 16,
) -> Embedding:
    """Find chains of ``target`` nodes realising ``source`` as a minor.

    Returns ``{source_node: [target_nodes...]}``.  Raises
    :class:`~repro.exceptions.EmbeddingError` after ``tries`` failed
    randomised attempts.
    """
    rng = ensure_rng(rng)
    if source.number_of_nodes() == 0:
        return {}
    if source.number_of_nodes() > target.number_of_nodes():
        raise EmbeddingError("source graph larger than target graph")
    for _ in range(tries):
        embedding = _try_embed(source, target, rng)
        if embedding is not None:
            return embedding
    clique = _chimera_clique_fallback(source, target)
    if clique is not None:
        return clique
    raise EmbeddingError(
        f"no embedding of {source.number_of_nodes()}-node source into "
        f"{target.number_of_nodes()}-node target found in {tries} tries"
    )


def _chimera_clique_fallback(source: nx.Graph, target: nx.Graph) -> "Embedding | None":
    """Dense sources on Chimera targets: use the deterministic clique embedding.

    The clique embedding couples *every* pair of chains, so it hosts any
    source graph up to ``t * m`` nodes regardless of density — exactly how
    production annealer toolchains handle near-clique problems.
    """
    from repro.annealing.chimera import chimera_clique_embedding, chimera_shape

    shape = chimera_shape(target)
    if shape is None:
        return None
    m, n, t = shape
    if m != n or source.number_of_nodes() > t * m:
        return None
    chains = chimera_clique_embedding(m, t, source.number_of_nodes())
    nodes = sorted(source.nodes)
    return {v: chains[i] for i, v in enumerate(nodes)}


def _try_embed(source: nx.Graph, target: nx.Graph, rng) -> "Embedding | None":
    order = sorted(source.nodes, key=lambda v: source.degree(v), reverse=True)
    # Break degree ties randomly so retries explore different placements.
    order = sorted(order, key=lambda v: (-source.degree(v), rng.random()))
    used: set[int] = set()
    embedding: Embedding = {}
    target_nodes = list(target.nodes)
    for v in order:
        placed_neighbors = [u for u in source.neighbors(v) if u in embedding]
        if not placed_neighbors:
            candidates = [t for t in target_nodes if t not in used]
            if not candidates:
                return None
            seed = candidates[int(rng.integers(0, len(candidates)))]
            embedding[v] = [seed]
            used.add(seed)
            continue
        chain = _grow_chain(target, used, embedding, placed_neighbors, rng)
        if chain is None:
            return None
        embedding[v] = chain
        used.update(chain)
    return embedding


def _grow_chain(target, used, embedding, placed_neighbors, rng) -> "list[int] | None":
    """Grow a chain of free nodes adjacent to every placed neighbour chain."""
    free = [t for t in target.nodes if t not in used]
    if not free:
        return None
    # BFS from the frontier of each neighbour chain through free nodes,
    # recording the parent pointers; then pick a meeting node reachable from
    # all neighbours and assemble the union of paths.
    reach: dict[int, dict[int, int]] = {}
    for u in placed_neighbors:
        dist: dict[int, int] = {}
        parent: dict[int, int] = {}
        frontier = []
        for t in embedding[u]:
            for nb in target.neighbors(t):
                if nb not in used and nb not in dist:
                    dist[nb] = 1
                    parent[nb] = -1  # direct contact with the chain
                    frontier.append(nb)
        while frontier:
            nxt = []
            for node in frontier:
                for nb in target.neighbors(node):
                    if nb not in used and nb not in dist:
                        dist[nb] = dist[node] + 1
                        parent[nb] = node
                        nxt.append(nb)
            frontier = nxt
        reach[u] = parent
        if not parent:
            return None
    common = set.intersection(*(set(p.keys()) for p in reach.values()))
    if not common:
        return None
    # Cheapest meeting point: smallest total path length.
    def cost(node: int) -> int:
        total = 0
        for u in placed_neighbors:
            steps, cur = 0, node
            while cur != -1:
                steps += 1
                cur = reach[u][cur]
            total += steps
        return total

    best = min(common, key=cost)
    chain: list[int] = []
    seen: set[int] = set()
    for u in placed_neighbors:
        cur = best
        while cur != -1:
            if cur not in seen:
                seen.add(cur)
                chain.append(cur)
            cur = reach[u][cur]
    return chain


def verify_embedding(source: nx.Graph, target: nx.Graph, embedding: Embedding) -> bool:
    """Check chain connectivity, disjointness and edge coverage."""
    seen: set[int] = set()
    for v, chain in embedding.items():
        if not chain:
            return False
        if seen.intersection(chain):
            return False
        seen.update(chain)
        if len(chain) > 1 and not nx.is_connected(target.subgraph(chain)):
            return False
    for u, v in source.edges:
        if u not in embedding or v not in embedding:
            return False
        touching = any(
            target.has_edge(a, b) for a in embedding[u] for b in embedding[v]
        )
        if not touching:
            return False
    return True


def embed_qubo(
    model: QuboModel,
    embedding: Embedding,
    target: nx.Graph,
    chain_strength: "float | None" = None,
) -> QuboModel:
    """Produce the physical QUBO over hardware qubits.

    Linear coefficients are split evenly across each chain; each logical
    coupling is placed on the available physical couplers between the two
    chains (split evenly); chain integrity adds ``strength * XOR(x_a, x_b)``
    per chain edge so broken chains are penalised.
    """
    if chain_strength is None:
        chain_strength = 2.0 * model.max_abs_coefficient() + 1.0
    hw = QuboModel()
    hw.add_offset(model.offset)
    for i, chain in embedding.items():
        coeff = model.linear.get(i, 0.0)
        for q in chain:
            hw.variable(q)
            if coeff:
                hw.add_linear(q, coeff / len(chain))
    for (i, j), b in model.quadratic.items():
        couplers = [
            (a, c)
            for a in embedding[i]
            for c in embedding[j]
            if target.has_edge(a, c)
        ]
        if not couplers:
            raise EmbeddingError(f"no physical coupler for logical edge ({i}, {j})")
        for a, c in couplers:
            hw.add_quadratic(a, c, b / len(couplers))
    for i, chain in embedding.items():
        sub = nx.minimum_spanning_tree(nx.Graph(target.subgraph(chain)))
        for a, c in sub.edges:
            # XOR penalty: x_a + x_c - 2 x_a x_c.
            hw.add_linear(a, chain_strength)
            hw.add_linear(c, chain_strength)
            hw.add_quadratic(a, c, -2.0 * chain_strength)
    return hw


def unembed_sampleset(
    hardware_samples: SampleSet,
    embedding: Embedding,
    hardware_model: QuboModel,
    logical_model: QuboModel,
) -> SampleSet:
    """Map hardware samples back to logical variables by chain majority vote.

    The returned set reports logical energies; ``info['chain_break_fraction']``
    records how often chains disagreed internally.
    """
    bits = np.zeros((len(hardware_samples), logical_model.num_variables), dtype=np.uint8)
    breaks = 0
    for v, chain in embedding.items():
        ones = hardware_samples.bits[:, hardware_model.indices_of(chain)].sum(axis=1)
        breaks += int(np.count_nonzero((ones > 0) & (ones < len(chain))))
        bits[:, v] = ones * 2 >= len(chain)
    info = dict(hardware_samples.info)
    info["chain_break_fraction"] = breaks / max(len(bits) * len(embedding), 1)
    # One energy call per row: a batched call may round the last bit apart.
    energies = [logical_model.energy(row) for row in bits]
    return SampleSet(bits, energies, hardware_samples.counts, info=info)
