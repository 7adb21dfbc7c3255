"""A bare PDA run as a scheme, for tests that need a delivery array with no
access topology around it."""

import numpy as np

from macc.simulate import ArrayScheme


def shared_link_scheme(pda) -> ArrayScheme:
    """A bare PDA run as a single-link system: one cache-node per user,
    holding exactly the starred rows of that user's column."""
    return ArrayScheme(
        topology={},
        row_labels=(),
        user_blocks=tuple((k + 1,) for k in range(pda.num_cols)),
        node_placement=pda.grid < 0,
        user_nodes=np.arange(pda.num_cols)[:, None],
        user_delivery=pda,
    )
