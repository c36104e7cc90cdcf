"""Core/quotient combinatorics of charged partitions and multipartitions.

Beta-set and abacus arithmetic, the rank-e and level-l decompositions of a
charged partition and the transpose between them, addable/removable node
bookkeeping with the associated crystal operators, generalized cores and
weights, block labels with their affine symmetric group action, and the
orbit/realization machinery on charge tuples.
"""

from .abacus import render_abacus
from .actions import (
    act_charge_e,
    act_charge_l,
    duality_transport,
    pair_symbols,
    parse_word,
    psi,
    sigma_ordinary,
    sigma_star,
)
from .blocks import (
    BlockId,
    block_action,
    block_id,
    blocks_of,
    is_scopes,
    is_scopes_exhaustive,
    level_multicharge,
    orbit_equivalent,
    reachable_multicharges,
    realize_multicharge,
    uglov_set,
)
from .nodes import (
    Node,
    Signature,
    boundary_nodes,
    content,
    e_tilde,
    f_tilde,
    i_signature,
    residue,
)
from .partitions import (
    Symbol,
    beta_set,
    multipartitions_of,
    partition_of_symbol,
    partitions_of,
)
from .quotients import (
    CoreData,
    GeneralizedCore,
    core_data,
    e_core_partition,
    generalized_core,
    in_closed_domain,
    in_strict_domain,
    is_core,
    is_core_nodewise,
    level_rank_transpose,
    tau_e,
    tau_e_inverse,
    tau_l,
    tau_l_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "BlockId",
    "CoreData",
    "GeneralizedCore",
    "Node",
    "Signature",
    "Symbol",
    "act_charge_e",
    "act_charge_l",
    "beta_set",
    "block_action",
    "block_id",
    "blocks_of",
    "boundary_nodes",
    "content",
    "core_data",
    "duality_transport",
    "e_core_partition",
    "e_tilde",
    "f_tilde",
    "generalized_core",
    "i_signature",
    "in_closed_domain",
    "in_strict_domain",
    "is_core",
    "is_core_nodewise",
    "is_scopes",
    "is_scopes_exhaustive",
    "level_multicharge",
    "level_rank_transpose",
    "multipartitions_of",
    "orbit_equivalent",
    "pair_symbols",
    "parse_word",
    "partition_of_symbol",
    "partitions_of",
    "psi",
    "reachable_multicharges",
    "realize_multicharge",
    "render_abacus",
    "residue",
    "sigma_ordinary",
    "sigma_star",
    "tau_e",
    "tau_e_inverse",
    "tau_l",
    "tau_l_inverse",
    "uglov_set",
]
